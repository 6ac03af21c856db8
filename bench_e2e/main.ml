(* End-to-end benchmark of the replicated discovery stack.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--spans-out FILE]

   A run repeats rounds of the chosen workload (set-up, timed phase,
   output checks) until [--seconds] of wall time have passed, with at
   least three untraced rounds ([--trace 0]) or two untraced/traced pairs
   ([--trace 1]).  The last line of standard output is the result object;
   with [--trace 0] it holds the end-to-end metrics, with [--trace 1] the
   per-layer metrics of the traced rounds.  Any failed output check makes
   the result [correct: false] and the exit code 1.  [--spans-out] writes
   the last traced round's spans as JSON lines. *)

let usage = "main.exe --workload steady-join|refresh-query|flash-batch --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S wall seconds to keep measuring");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans-out", Arg.Set_string spans_out, "FILE write the last traced round's spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload E2e.Workloads.workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  let traced_run = !trace = 1 in
  let size = E2e.Workloads.full in
  let t0 = E2e.Clock.now_ns () in
  let untraced = ref [] and traced = ref [] in
  let round ~traced:tr =
    Gc.compact ();
    let r = E2e.Workloads.run size w ~seed:!seed ~traced:tr in
    Printf.eprintf "round %d%s: setup %.3f s, %d/%d ops completed%s\n%!"
      (List.length !untraced + List.length !traced + 1)
      (if tr then " (traced)" else "")
      r.setup_s r.completed r.offered
      (String.concat ""
         (List.map (fun (name, v) -> Printf.sprintf ", %s %.4g" name v) r.wall));
    if tr then traced := r :: !traced else untraced := r :: !untraced
  in
  let min_rounds = if traced_run then 2 else 3 in
  while List.length !untraced < min_rounds || E2e.Clock.seconds_since t0 < float_of_int !seconds do
    round ~traced:false;
    if traced_run then round ~traced:true
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let all = untraced @ traced in
  let first = List.hd all in
  let failures =
    List.concat_map (fun (r : E2e.Workloads.round) -> r.failures) all
    @ List.filter_map
        (fun (r : E2e.Workloads.round) ->
          if E2e.Report.fingerprint r = E2e.Report.fingerprint first then None
          else Some "a round's seed-determined figures differ from the first round's")
        all
  in
  let values =
    if traced_run then E2e.Report.per_layer_values ~untraced ~traced
    else
      let words = (Gc.quick_stat ()).top_heap_words in
      E2e.Report.end_to_end_values ~untraced
        ~peak_heap_mb:(float_of_int (words * (Sys.word_size / 8)) /. 1048576.0)
  in
  let failures =
    failures
    @ List.filter_map
        (fun (name, v, _) -> if Float.is_finite v then None else Some (name ^ " is not finite"))
        values
  in
  List.iter (fun msg -> Printf.eprintf "CHECK FAILED: %s\n" msg) (List.sort_uniq compare failures);
  if traced_run then begin
    E2e.Report.print_breakdown stderr (List.hd (List.rev traced));
    if !spans_out <> "" then E2e.Tracer.write_jsonl !spans_out
  end;
  Printf.printf "workload %s, seed %d, %d rounds; per round: %d offered, %d admitted, %d completed (latency samples), %d gave up, %d shed\n"
    !workload !seed (List.length all) first.offered first.admitted first.completed first.gave_up
    first.shed;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-36s %14.6g %s\n" name v unit) values;
  let attempted = List.fold_left (fun acc (r : E2e.Workloads.round) -> acc + r.admitted) 0 all in
  let failed = List.fold_left (fun acc (r : E2e.Workloads.round) -> acc + r.gave_up) 0 all in
  let correct = failures = [] in
  print_endline (E2e.Report.result_line ~correct ~attempted ~failed values);
  if not correct then exit 1
