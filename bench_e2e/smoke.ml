(* Smoke test of the end-to-end benchmark: every workload at a tiny size.

   For each workload it checks that
   - the output checks pass, untraced and traced;
   - an untraced and a traced round with the same seed give identical
     model-behaviour metrics and counts;
   - another seed changes them;
   - the rounds report every end-to-end and per-layer metric the result
     line promises. *)

open E2e

let failed = ref false

let expect ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        failed := true;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

let () =
  List.iter
    (fun (name, w) ->
      let run ~seed ~traced = Workloads.run Workloads.tiny w ~seed ~traced in
      let a = run ~seed:1 ~traced:false in
      let b = run ~seed:1 ~traced:true in
      let c = run ~seed:2 ~traced:false in
      List.iter
        (fun (r : Workloads.round) ->
          List.iter (fun msg -> expect false "%s: check failed: %s" name msg) r.failures;
          expect (r.completed > 0) "%s: no op completed" name)
        [ a; b; c ];
      expect (Report.fingerprint a = Report.fingerprint b) "%s: same seed, different figures" name;
      expect (Report.fingerprint a <> Report.fingerprint c) "%s: another seed, same figures" name;
      List.iter
        (fun (metric, _) ->
          let reported =
            metric = "setup_s" || metric = "peak_heap_mb" || List.mem_assoc metric a.wall
            || List.mem_assoc metric a.model
          in
          expect reported "%s: end-to-end metric %s missing" name metric)
        Report.end_to_end;
      List.iter
        (fun (metric, _) ->
          expect
            (metric = "trace.overhead_frac" || List.mem_assoc metric b.layers)
            "%s: per-layer metric %s missing" name metric)
        Report.per_layer;
      Printf.printf "%s: %d/%d ops completed, %d shed, restores %g, checks %s\n%!" name a.completed
        a.offered a.shed
        (List.assoc "cluster.restores" a.layers)
        (if a.failures = [] && b.failures = [] && c.failures = [] then "ok" else "FAILED"))
    Workloads.workloads;
  if !failed then exit 1
