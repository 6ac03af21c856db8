(* Fixed-width windowed aggregation on an explicit clock.

   A series is a bounded ring of windows; window [i] covers simulated time
   [[i * width, (i+1) * width)).  Each window keeps a Welford accumulator
   and three P² sketches, so a long run holds at most [capacity] windows of
   O(1) state per series however many samples flow through.  Only windows
   that received a sample are materialized — a gap in traffic costs
   nothing and serializes as [null].

   The clock is the caller's business (engine time in the simulators, an
   operation counter in the CLI drivers); this module never reads a wall
   clock, which keeps runs deterministic. *)

type window = {
  index : int;  (* window number: floor (now / width) *)
  st : Prelude.Stats.t;
  q50 : Prelude.Quantile.t;
  q90 : Prelude.Quantile.t;
  q99 : Prelude.Quantile.t;
}

type series = {
  name : string;
  ring : window option array;  (* slot = index mod capacity *)
  mutable latest : int;  (* highest window index written; -1 when empty *)
}

type t = {
  window_ms : float;
  capacity : int;
  table : (string, series) Hashtbl.t;
}

type summary = {
  index : int;
  from_ms : float;
  count : int;
  rate_per_s : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let create ?(capacity = 64) ~window_ms () =
  if window_ms <= 0.0 then invalid_arg "Timeseries.create: window_ms must be positive";
  if capacity < 1 then invalid_arg "Timeseries.create: capacity must be at least 1";
  { window_ms; capacity; table = Hashtbl.create 8 }

let window_ms t = t.window_ms
let capacity t = t.capacity

let series t name =
  match Hashtbl.find_opt t.table name with
  | Some s -> s
  | None ->
      let s = { name; ring = Array.make t.capacity None; latest = -1 } in
      Hashtbl.add t.table name s;
      s

(* A sample at exactly a window boundary t = k * width belongs to window k
   (half-open intervals); a clock that never goes negative is assumed, but
   a stray negative time is clamped into window 0 rather than raising. *)
let window_index t now = if now <= 0.0 then 0 else int_of_float (Float.floor (now /. t.window_ms))

let fresh_window index =
  {
    index;
    st = Prelude.Stats.create ();
    q50 = Prelude.Quantile.create ~q:0.5;
    q90 = Prelude.Quantile.create ~q:0.9;
    q99 = Prelude.Quantile.create ~q:0.99;
  }

let observe_series t s ~now v =
  let index = window_index t now in
  let slot = index mod t.capacity in
  let w =
    match s.ring.(slot) with
    | Some w when w.index = index -> w
    | _ ->
        (* Evicts whatever older window occupied the slot. *)
        let w = fresh_window index in
        s.ring.(slot) <- Some w;
        w
  in
  Prelude.Stats.add w.st v;
  Prelude.Quantile.add w.q50 v;
  Prelude.Quantile.add w.q90 v;
  Prelude.Quantile.add w.q99 v;
  if index > s.latest then s.latest <- index

let observe t name ~now v = observe_series t (series t name) ~now v

let summary_of t (w : window) =
  {
    index = w.index;
    from_ms = float_of_int w.index *. t.window_ms;
    count = Prelude.Stats.count w.st;
    rate_per_s = float_of_int (Prelude.Stats.count w.st) /. (t.window_ms /. 1000.0);
    mean = Prelude.Stats.mean w.st;
    p50 = Prelude.Quantile.estimate w.q50;
    p90 = Prelude.Quantile.estimate w.q90;
    p99 = Prelude.Quantile.estimate w.q99;
  }

(* Retained range: the [capacity] window indices ending at the newest one
   written.  Windows inside the range that never saw a sample are [None]. *)
let windows_of_series t s =
  if s.latest < 0 then []
  else begin
    let first = max 0 (s.latest - t.capacity + 1) in
    List.init (s.latest - first + 1) (fun i ->
        let index = first + i in
        match s.ring.(index mod t.capacity) with
        | Some w when w.index = index -> Some (summary_of t w)
        | _ -> None)
  end

let windows t name =
  match Hashtbl.find_opt t.table name with None -> [] | Some s -> windows_of_series t s

let latest_index t name =
  match Hashtbl.find_opt t.table name with
  | Some s when s.latest >= 0 -> Some s.latest
  | _ -> None

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.table [] |> List.sort compare

(* Zero in place: series handles obtained through [series] stay live across
   a reset, mirroring Trace.reset's counter_ref guarantee. *)
let reset t =
  Hashtbl.iter
    (fun _ s ->
      Array.fill s.ring 0 (Array.length s.ring) None;
      s.latest <- -1)
    t.table

(* --- JSON ------------------------------------------------------------- *)

let summary_json (s : summary) =
  Json.Obj
    [
      ("window", Json.Int s.index);
      ("from_ms", Json.Number s.from_ms);
      ("count", Json.Int s.count);
      ("rate_per_s", Json.Number s.rate_per_s);
      ("mean", Json.Number s.mean);
      ("p50", Json.Number s.p50);
      ("p90", Json.Number s.p90);
      ("p99", Json.Number s.p99);
    ]

let series_json t s =
  let ws = windows_of_series t s in
  let from = match ws with _ :: _ -> max 0 (s.latest - List.length ws + 1) | [] -> 0 in
  Json.Obj
    [ ("from_window", Json.Int from); ("windows", Json.List (List.map (Json.option summary_json) ws)) ]

let to_json t =
  Json.Obj
    [
      ("window_ms", Json.Number t.window_ms);
      ( "series",
        Json.Obj (List.map (fun name -> (name, series_json t (Hashtbl.find t.table name))) (names t)) );
    ]
