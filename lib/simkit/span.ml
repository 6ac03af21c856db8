type value = Int of int | Float of float | Str of string | Bool of bool

(* Causal identity of one span.  [trace_id] names the whole request tree
   (one join, end to end, across retries and replica failover); [span_id]
   names this span; [parent_span_id] links it to its causal parent.  Ids
   are allocated per sink and only need to be unique within a trace file,
   so a plain counter suffices. *)
type context = { trace_id : int; span_id : int; parent_span_id : int option }

let null_context = { trace_id = 0; span_id = 0; parent_span_id = None }

type event = {
  name : string;
  ts : float;
  dur : float;
  tid : int;
  ctx : context option;
  args : (string * value) list;
}

type buffer = {
  pid : int;
  mutable clock : float;
  mutable events : event list;  (* newest first *)
  mutable count : int;
  mutable next_id : int;  (* span/trace id allocator, 1-based *)
  mutable ambient : context list;  (* innermost first; see [with_context] *)
}

(* The sink is a sum so the disabled case is one pattern match on the hot
   path — no buffer, no clock, no allocation. *)
type sink = Noop | Buffer of buffer

let noop = Noop

let buffer ?(pid = 1) () =
  Buffer { pid; clock = 0.0; events = []; count = 0; next_id = 0; ambient = [] }

let enabled = function Noop -> false | Buffer _ -> true
let now = function Noop -> 0.0 | Buffer b -> b.clock

let advance sink dt =
  match sink with
  | Noop -> ()
  | Buffer b -> if dt > 0.0 then b.clock <- b.clock +. dt

let fresh_id b =
  b.next_id <- b.next_id + 1;
  b.next_id

(* A fresh context under [parent] (same trace, child span) or a fresh root
   (new trace).  The noop sink hands out [null_context] so call sites can
   thread contexts unconditionally — emission drops them anyway. *)
let context sink ?parent () =
  match sink with
  | Noop -> null_context
  | Buffer b -> (
      match parent with
      | Some p -> { trace_id = p.trace_id; span_id = fresh_id b; parent_span_id = Some p.span_id }
      | None ->
          let id = fresh_id b in
          { trace_id = id; span_id = id; parent_span_id = None })

let current sink =
  match sink with Noop -> None | Buffer b -> ( match b.ambient with c :: _ -> Some c | [] -> None)

let with_context sink ctx f =
  match sink with
  | Noop -> f ()
  | Buffer b ->
      b.ambient <- ctx :: b.ambient;
      Fun.protect ~finally:(fun () -> b.ambient <- List.tl b.ambient) f

let emit sink ~name ~ts ?(dur = 0.0) ?(tid = 0) ?ctx args =
  match sink with
  | Noop -> ()
  | Buffer b ->
      b.events <- { name; ts; dur; tid; ctx; args } :: b.events;
      b.count <- b.count + 1

(* --- Open-span handles ------------------------------------------------- *)

type span = {
  sink : sink;
  span_ctx : context;
  span_name : string;
  t0 : float;
  span_tid : int;
  mutable open_args : (string * value) list;
  mutable finished : bool;
}

let start_span sink ~name ?ts ?parent ?(tid = 0) args =
  let ts = match ts with Some t -> t | None -> now sink in
  {
    sink;
    span_ctx = context sink ?parent ();
    span_name = name;
    t0 = ts;
    span_tid = tid;
    open_args = args;
    finished = false;
  }

let context_of s = s.span_ctx
let add_arg s key v = if not s.finished then s.open_args <- (key, v) :: s.open_args

(* Idempotent: a span can race its own timeout path (Rpc finishes the
   attempt span from both the reply and the stale timeout callback); only
   the first close emits. *)
let finish ?ts ?(args = []) s =
  if not s.finished then begin
    s.finished <- true;
    match s.sink with
    | Noop -> ()
    | Buffer _ ->
        let t1 = match ts with Some t -> t | None -> now s.sink in
        emit s.sink ~name:s.span_name ~ts:s.t0 ~dur:(Float.max 0.0 (t1 -. s.t0)) ~tid:s.span_tid
          ~ctx:s.span_ctx
          (List.rev s.open_args @ args)
  end

(* Scoped form: the span closes on every exit path (exceptions included,
   tagged with the exception text) and is ambient while [f] runs, so nested
   instrumentation — down to the registry middleware — parents itself under
   it without any signature threading. *)
let with_span sink ~name ?clock ?parent ?tid args f =
  match sink with
  | Noop -> f null_context
  | Buffer _ ->
      let clock = match clock with Some c -> c | None -> fun () -> now sink in
      let s = start_span sink ~name ~ts:(clock ()) ?parent ?tid args in
      with_context sink s.span_ctx (fun () ->
          match f s.span_ctx with
          | v ->
              finish ~ts:(clock ()) s;
              v
          | exception e ->
              finish ~ts:(clock ()) s ~args:[ ("error", Str (Printexc.to_string e)) ];
              raise e)

let events = function Noop -> [] | Buffer b -> List.rev b.events
let event_count = function Noop -> 0 | Buffer b -> b.count

let value_json : value -> Json.t = function
  | Int i -> Json.Int i
  | Float f -> Json.Number f
  | Str s -> Json.String s
  | Bool b -> Json.Bool b

(* One Chrome trace-event (about://tracing, Perfetto) complete event per
   line.  The sink clock is in simulated milliseconds; the format wants
   microseconds.  The causal fields are top-level extras: Chrome/Perfetto
   ignore unknown keys, while {!Trace_analysis} reads them back.  Events
   are rendered only here, when the buffer is dumped. *)
let event_json ~pid e =
  let base =
    [
      ("name", Json.String e.name);
      ("cat", Json.String "nearby");
      ("ph", Json.String "X");
      ("pid", Json.Int pid);
      ("tid", Json.Int e.tid);
      ("ts", Json.Number (e.ts *. 1000.0));
      ("dur", Json.Number (e.dur *. 1000.0));
    ]
  in
  let causal =
    match e.ctx with
    | None -> []
    | Some c ->
        [ ("trace_id", Json.Int c.trace_id); ("span_id", Json.Int c.span_id) ]
        @ (match c.parent_span_id with Some p -> [ ("parent_span_id", Json.Int p) ] | None -> [])
  in
  let args = List.map (fun (k, v) -> (k, value_json v)) e.args in
  Json.Obj (base @ causal @ [ ("args", Json.Obj args) ])

let to_jsonl = function
  | Noop -> ""
  | Buffer b ->
      let buf = Buffer.create (256 * (b.count + 1)) in
      List.iter
        (fun e ->
          Buffer.add_string buf (Json.to_string (event_json ~pid:b.pid e));
          Buffer.add_char buf '\n')
        (List.rev b.events);
      Buffer.contents buf
