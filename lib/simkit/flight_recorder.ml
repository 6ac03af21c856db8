(* A bounded ring of recent notable events — RPC outcomes, cluster
   membership changes, injected faults, SLO transitions — kept cheaply at
   all times so that when something trips (an SLO breach, an operator
   request) the moments leading up to it can be dumped as JSONL.  Old
   events are overwritten, never reallocated: recording is O(1) and a
   recorder can sit on the hot path of a large simulation. *)

type event = {
  ts : float;  (* caller's clock, simulated ms *)
  kind : string;  (* coarse family: "rpc" / "cluster" / "fault" / "slo" / ... *)
  detail : string;
  args : (string * Span.value) list;
}

type t = {
  capacity : int;
  ring : event option array;
  mutable next : int;  (* slot the next event lands in *)
  mutable total : int;  (* events ever recorded, including overwritten ones *)
}

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Flight_recorder.create: capacity must be at least 1";
  { capacity; ring = Array.make capacity None; next = 0; total = 0 }

let capacity t = t.capacity
let total_recorded t = t.total
let count t = min t.total t.capacity

let record t ~ts ~kind ?(args = []) detail =
  t.ring.(t.next) <- Some { ts; kind; detail; args };
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0;
  t.total <- 0

(* Oldest first: when the ring has wrapped, the oldest survivor sits at
   [next]; before wrapping, slot 0 is the oldest. *)
let events t =
  let start = if t.total >= t.capacity then t.next else 0 in
  List.filter_map
    (fun i -> t.ring.((start + i) mod t.capacity))
    (List.init (count t) Fun.id)

let event_json e =
  Json.Obj
    [
      ("ts", Json.Number e.ts);
      ("kind", Json.String e.kind);
      ("detail", Json.String e.detail);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, Span.value_json v)) e.args));
    ]

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_json e));
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf
