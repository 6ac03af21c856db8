type result = {
  pending : int;
  events : int;
  words_per_event : float;
  distinct_ns_per_event : float;
  tie_ns_per_event : float;
  tie_ns_rel_distinct : float;
}

let pending = 1000
let events = 200_000
let table_size = 4096 (* a power of two: delays are indexed by [land] *)

let delay_table draw =
  let rng = Prelude.Prng.create 17 in
  Array.init table_size (fun _ -> draw rng)

let distinct_delays () = delay_table (fun rng -> Prelude.Prng.float rng 1000.0)
let tie_delays () = delay_table (fun rng -> float_of_int (1 + Prelude.Prng.int rng 10))

(* An engine holding [pending] events of the schedule, and the drain that
   fires [events] in all: each firing reschedules the same closure until
   the budget is spent. *)
let prepare delays ~pending ~events =
  if pending < 1 || pending > events then
    invalid_arg "Dispatch_exp: need 0 < pending <= events";
  let engine = Simkit.Engine.create () in
  let mask = Array.length delays - 1 in
  let fired = ref 0 in
  let rec fire () =
    let i = !fired in
    fired := i + 1;
    if i + pending < events then Simkit.Engine.schedule engine ~delay:delays.(i land mask) fire
  in
  for i = 0 to pending - 1 do
    Simkit.Engine.schedule engine ~delay:delays.(i land mask) fire
  done;
  engine

(* [Gc.minor_words] is exact at any point; the counters' minor figure only
   moves at a minor collection. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let words_per_event ~pending ~events =
  let engine = prepare (distinct_delays ()) ~pending ~events in
  let before = allocated_words () in
  Simkit.Engine.run engine;
  (allocated_words () -. before) /. float_of_int events

let ns_per_event delays ~pending ~events =
  let engine = prepare delays ~pending ~events in
  let t0 = Prelude.Clock.now_ns () in
  Simkit.Engine.run engine;
  (Prelude.Clock.now_ns () -. t0) /. float_of_int events

let run () =
  let words_per_event = words_per_event ~pending ~events in
  let distinct = distinct_delays () and ties = tie_delays () in
  (* Interleaved, best of three: both timings see the same machine state. *)
  let best_distinct = ref infinity and best_tie = ref infinity in
  for _ = 1 to 3 do
    best_distinct := Float.min !best_distinct (ns_per_event distinct ~pending ~events);
    best_tie := Float.min !best_tie (ns_per_event ties ~pending ~events)
  done;
  {
    pending;
    events;
    words_per_event;
    distinct_ns_per_event = !best_distinct;
    tie_ns_per_event = !best_tie;
    tie_ns_rel_distinct = !best_tie /. !best_distinct;
  }

let result_json r =
  Simkit.Json.(
    Obj
      [
        ("pending", Int r.pending);
        ("events", Int r.events);
        ("words_per_event", Number r.words_per_event);
        ("distinct_ns_per_event", Number r.distinct_ns_per_event);
        ("tie_ns_per_event", Number r.tie_ns_per_event);
        ("tie_ns_rel_distinct", Number r.tie_ns_rel_distinct);
      ])

let gate : Regression.table =
  let open Regression in
  rows
    [
      row Lower_better ~tolerance:0.1 "engine/words_per_event"
        (num [ "dispatch"; "words_per_event" ]);
      row Lower_better ~tolerance:1.0 "engine/tie_ns_rel_distinct"
        (num [ "dispatch"; "tie_ns_rel_distinct" ]);
    ]

let print r =
  Printf.printf "Dispatch: %d pending, %d events per run\n" r.pending r.events;
  Prelude.Table.print ~header:[ "metric"; "value" ]
    [
      [ "words/event"; Prelude.Table.float_cell ~decimals:2 r.words_per_event ];
      [ "ns/event (distinct times)"; Prelude.Table.float_cell ~decimals:1 r.distinct_ns_per_event ];
      [ "ns/event (1 ms grid ties)"; Prelude.Table.float_cell ~decimals:1 r.tie_ns_per_event ];
      [ "ties / distinct"; Prelude.Table.float_cell ~decimals:2 r.tie_ns_rel_distinct ];
    ]
