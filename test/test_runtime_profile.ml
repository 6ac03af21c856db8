(* Runtime self-profiling: GC deltas per phase, domain-pool busy/idle
   accounting, and the profiler's own observe-path overhead. *)

open Simkit

let find_exn p name =
  match Runtime_profile.find p name with
  | Some ph -> ph
  | None -> Alcotest.failf "phase %s not recorded" name

(* Allocate enough to show up in the minor-heap counters whatever the
   runtime's minor heap size: a few million words of short-lived boxes. *)
let allocation_burst () =
  let acc = ref [] in
  for i = 0 to 200_000 do
    acc := (float_of_int i, i) :: !acc;
    if i mod 10_000 = 0 then acc := []
  done;
  ignore (Sys.opaque_identity !acc)

let test_gc_deltas_nonzero_and_monotone () =
  let p = Runtime_profile.create () in
  Runtime_profile.phase p "burst" allocation_burst;
  let first = find_exn p "burst" in
  Alcotest.(check int) "one run" 1 first.runs;
  Alcotest.(check bool) "wall time advanced" true (first.wall_ns >= 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "minor words counted (%.0f)" first.gc.minor_words)
    true
    (first.gc.minor_words > 0.0);
  (* Re-entering the phase accumulates: counters are monotone in runs. *)
  Runtime_profile.phase p "burst" allocation_burst;
  let second = find_exn p "burst" in
  Alcotest.(check int) "two runs" 2 second.runs;
  Alcotest.(check bool) "minor words monotone" true
    (second.gc.minor_words > first.gc.minor_words);
  Alcotest.(check bool) "wall monotone" true (second.wall_ns >= first.wall_ns);
  Alcotest.(check bool) "collections monotone" true
    (second.gc.minor_collections >= first.gc.minor_collections)

let test_phase_passes_result_and_exceptions () =
  let p = Runtime_profile.create () in
  Alcotest.(check int) "result passed through" 7
    (Runtime_profile.phase p "calc" (fun () -> 7));
  (match Runtime_profile.phase p "boom" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  (* The failed run is still recorded: a crashing phase must not vanish
     from the profile. *)
  Alcotest.(check int) "failed run recorded" 1 (find_exn p "boom").runs;
  Alcotest.(check bool) "overhead accumulates" true (Runtime_profile.overhead_ns p >= 0.0)

let test_phase_order_and_find () =
  let p = Runtime_profile.create () in
  Runtime_profile.phase p "a" Fun.id;
  Runtime_profile.phase p "b" Fun.id;
  Runtime_profile.phase p "a" Fun.id;
  Alcotest.(check (list string)) "first-entered order" [ "a"; "b" ]
    (List.map (fun (ph : Runtime_profile.phase) -> ph.name) (Runtime_profile.phases p));
  Alcotest.(check bool) "find missing" true (Runtime_profile.find p "zzz" = None)

let test_to_json_shape () =
  let p = Runtime_profile.create () in
  Runtime_profile.phase p "build" allocation_burst;
  let json = Json.to_string (Runtime_profile.to_json p) in
  let has sub =
    let n = String.length json and m = String.length sub in
    let rec scan i = i + m <= n && (String.sub json i m = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "phases key" true (has "\"phases\"");
  Alcotest.(check bool) "build phase" true (has "\"build\"");
  Alcotest.(check bool) "gc delta" true (has "\"minor_words\"");
  Alcotest.(check bool) "overhead" true (has "\"overhead_ns\"")

(* --- Domain-pool utilization accounting --- *)

let test_pool_zero_tasks_pure_idle () =
  let pool = Prelude.Domain_pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Prelude.Domain_pool.shutdown pool)
    (fun () ->
      let u = Prelude.Domain_pool.utilization pool in
      Alcotest.(check int) "no jobs" 0 u.jobs;
      Alcotest.(check int) "no tasks" 0 u.tasks;
      Alcotest.(check (float 1e-9)) "no busy time" 0.0 u.busy_ns;
      Alcotest.(check bool) "idle accounts for all worker time" true
        (Float.abs (u.idle_ns -. (float_of_int u.domains *. u.wall_ns)) <= 1e-3))

let busy_spin () =
  let x = ref 0.0 in
  for i = 1 to 200_000 do
    x := !x +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !x)

let check_accounting (u : Prelude.Domain_pool.utilization) =
  Alcotest.(check bool) "busy time measured" true (u.busy_ns > 0.0);
  Alcotest.(check bool) "busy bounded by capacity" true
    (u.busy_ns <= float_of_int u.domains *. u.wall_ns +. 1e-3);
  (* busy + idle == domains * wall by construction (idle clamped at 0). *)
  Alcotest.(check bool) "busy+idle accounts for all worker time" true
    (Float.abs (u.busy_ns +. u.idle_ns -. (float_of_int u.domains *. u.wall_ns)) <= 1e-3
    || (u.idle_ns = 0.0 && u.busy_ns >= float_of_int u.domains *. u.wall_ns -. 1e-3))

let test_pool_busy_accounting_parallel () =
  let pool = Prelude.Domain_pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Prelude.Domain_pool.shutdown pool)
    (fun () ->
      Prelude.Domain_pool.run pool 8 (fun _ -> busy_spin ());
      let u = Prelude.Domain_pool.utilization pool in
      Alcotest.(check int) "one job" 1 u.jobs;
      Alcotest.(check int) "eight tasks" 8 u.tasks;
      check_accounting u;
      Prelude.Domain_pool.reset_utilization pool;
      let r = Prelude.Domain_pool.utilization pool in
      Alcotest.(check int) "reset jobs" 0 r.jobs;
      Alcotest.(check (float 1e-9)) "reset busy" 0.0 r.busy_ns)

let test_pool_busy_accounting_sequential () =
  (* domains = 1 spawns nothing; the sequential fallback path must feed
     the same counters. *)
  let pool = Prelude.Domain_pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Prelude.Domain_pool.shutdown pool)
    (fun () ->
      Prelude.Domain_pool.run pool 4 (fun _ -> busy_spin ());
      let u = Prelude.Domain_pool.utilization pool in
      Alcotest.(check int) "one job" 1 u.jobs;
      Alcotest.(check int) "four tasks" 4 u.tasks;
      check_accounting u)

let test_note_pool () =
  let p = Runtime_profile.create () in
  Alcotest.(check bool) "no pool noted" true (Runtime_profile.pool p = None);
  let pool = Prelude.Domain_pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Prelude.Domain_pool.shutdown pool)
    (fun () ->
      Prelude.Domain_pool.run pool 2 (fun _ -> busy_spin ());
      Runtime_profile.note_pool p pool;
      match Runtime_profile.pool p with
      | None -> Alcotest.fail "pool snapshot missing"
      | Some u -> Alcotest.(check int) "snapshot carries tasks" 2 u.tasks)

let suite =
  ( "runtime_profile",
    [
      Alcotest.test_case "gc deltas nonzero and monotone" `Quick
        test_gc_deltas_nonzero_and_monotone;
      Alcotest.test_case "phase result and exceptions" `Quick
        test_phase_passes_result_and_exceptions;
      Alcotest.test_case "phase order and find" `Quick test_phase_order_and_find;
      Alcotest.test_case "to_json shape" `Quick test_to_json_shape;
      Alcotest.test_case "pool: zero tasks is pure idle" `Quick test_pool_zero_tasks_pure_idle;
      Alcotest.test_case "pool: parallel accounting" `Quick test_pool_busy_accounting_parallel;
      Alcotest.test_case "pool: sequential accounting" `Quick
        test_pool_busy_accounting_sequential;
      Alcotest.test_case "note_pool snapshot" `Quick test_note_pool;
    ] )
