(* Load_exp: the flash-crowd headline (SLO shedding holds admitted p99,
   drop-tail does not), churn/mobility composition, and the JSON shape. *)

let base_config =
  {
    Eval.Load_exp.default_config with
    routers = 400;
    arrival =
      Simkit.Workload.Flash
        { base_per_s = 25.0; spike_per_s = 200.0; spike_at_s = 500.0 /. 1000.0; spike_len_s = 2.0 };
    duration_ms = 4_000.0;
    service_rate_per_s = 100.0;
    batch = 8;
    queue_cap = 150;
    seed = 42;
  }

let run policy = Eval.Load_exp.run { base_config with policy }

let test_headline_slo_vs_drop_tail () =
  let slo = run "slo" and drop = run "drop-tail" in
  (* Both policies complete every admitted request — shedding happens at
     the front door, never after admission. *)
  Alcotest.(check (float 1e-9)) "slo completes admitted" 1.0 slo.Eval.Load_exp.completion_rate;
  Alcotest.(check (float 1e-9)) "drop-tail completes admitted" 1.0
    drop.Eval.Load_exp.completion_rate;
  Alcotest.(check bool) "both make progress" true
    (slo.Eval.Load_exp.goodput_per_s > 0.0 && drop.Eval.Load_exp.goodput_per_s > 0.0);
  (* The headline: at 2x saturation the shedder holds the admitted-join
     p99 inside the budget; drop-tail's p99 is the full queue-drain time
     (cap / service = 3 s here) and blows through it. *)
  Alcotest.(check bool) "saturated" true (slo.Eval.Load_exp.saturation >= 1.5);
  Alcotest.(check bool) "slo p99 within budget" true slo.Eval.Load_exp.p99_within_budget;
  Alcotest.(check bool) "drop-tail p99 busts the budget" false
    drop.Eval.Load_exp.p99_within_budget;
  Alcotest.(check bool) "slo tail beats drop-tail tail" true
    (slo.Eval.Load_exp.join_p99_ms < drop.Eval.Load_exp.join_p99_ms);
  Alcotest.(check bool) "the shedder actually opened" true
    (slo.Eval.Load_exp.slo_sheds_opened >= 1);
  Alcotest.(check bool) "slo sheds carry the slo reason" true
    (match List.assoc_opt "slo" slo.Eval.Load_exp.shed with Some n -> n > 0 | None -> false);
  Alcotest.(check bool) "drop-tail sheds at the full queue" true
    (match List.assoc_opt "queue_full" drop.Eval.Load_exp.shed with
    | Some n -> n > 0
    | None -> false);
  Alcotest.(check bool) "shed fraction consistent" true
    (slo.Eval.Load_exp.shed_fraction > 0.0 && slo.Eval.Load_exp.shed_fraction < 1.0)

let test_deadline_policy () =
  let r = run "deadline" in
  Alcotest.(check (float 1e-9)) "completes admitted" 1.0 r.Eval.Load_exp.completion_rate;
  (* Deadline expiry bounds the served wait: p99 wait <= the 0.8 * budget
     default bound (expired requests are shed, not served late). *)
  Alcotest.(check bool) "deadline sheds" true
    (match List.assoc_opt "deadline" r.Eval.Load_exp.shed with Some n -> n > 0 | None -> false);
  Alcotest.(check bool) "served waits bounded by the deadline" true
    (r.Eval.Load_exp.wait_p99_ms <= 0.8 *. r.Eval.Load_exp.slo_budget_ms +. 1e-6)

let test_determinism () =
  let a = Eval.Load_exp.run { base_config with policy = "slo" } in
  let b = Eval.Load_exp.run { base_config with policy = "slo" } in
  Alcotest.(check string) "same seed, same result"
    (Simkit.Json.to_string (Eval.Load_exp.result_json a))
    (Simkit.Json.to_string (Eval.Load_exp.result_json b));
  let c = Eval.Load_exp.run { base_config with policy = "slo"; seed = 43 } in
  Alcotest.(check bool) "different seed differs" true
    (Simkit.Json.to_string (Eval.Load_exp.result_json a)
    <> Simkit.Json.to_string (Eval.Load_exp.result_json c))

let test_churn_and_mobility () =
  let config =
    {
      base_config with
      arrival = Simkit.Workload.Poisson { rate_per_s = 40.0 };
      duration_ms = 5_000.0;
      churn =
        {
          Simkit.Workload.session = Some (Simkit.Churn.Exponential { mean_ms = 1_200.0 });
          mobility_fraction = 0.5;
        };
      seed = 7;
    }
  in
  let r = Eval.Load_exp.run config in
  Alcotest.(check (float 1e-9)) "completes admitted" 1.0 r.Eval.Load_exp.completion_rate;
  Alcotest.(check bool) "graceful leaves happened" true (r.Eval.Load_exp.leaves > 0);
  Alcotest.(check bool) "regional handovers happened" true (r.Eval.Load_exp.handovers > 0);
  (* A handover re-joins through the same admission queue. *)
  Alcotest.(check bool) "handovers re-submit" true
    (r.Eval.Load_exp.submitted > r.Eval.Load_exp.offered);
  Alcotest.(check bool) "registry retains the survivors" true (r.Eval.Load_exp.final_peers > 0)

let test_result_json_shape () =
  let r = run "slo" in
  let json = Simkit.Json.parse_exn (Simkit.Json.to_string (Eval.Load_exp.result_json r)) in
  let get conv key =
    match Option.bind (Simkit.Json.path [ key ] json) conv with
    | Some v -> v
    | None -> Alcotest.fail (Printf.sprintf "missing or mistyped field %S" key)
  in
  Alcotest.(check string) "arrival" "flash" (get Simkit.Json.as_string "arrival");
  Alcotest.(check string) "policy" "slo" (get Simkit.Json.as_string "policy");
  Alcotest.(check (float 1e-6)) "submitted round-trips" (float_of_int r.Eval.Load_exp.submitted)
    (get Simkit.Json.as_float "submitted");
  Alcotest.(check (float 0.01)) "join p99 round-trips" r.Eval.Load_exp.join_p99_ms
    (get Simkit.Json.as_float "join_p99_ms");
  Alcotest.(check bool) "headline flag present" true (get Simkit.Json.as_bool "p99_within_budget");
  (* shed serializes as an object keyed by reason. *)
  match Option.bind (Simkit.Json.path [ "shed"; "slo" ] json) Simkit.Json.as_float with
  | Some n -> Alcotest.(check bool) "shed breakdown present" true (n > 0.0)
  | None -> Alcotest.fail "shed.slo missing from result json"

let test_instrumented_artifacts () =
  let r, art = Eval.Load_exp.run_instrumented { base_config with policy = "slo" } in
  let totals = art.Eval.Load_exp.totals in
  Alcotest.(check int) "totals agree on submissions" r.Eval.Load_exp.submitted
    totals.Nearby.Admission.submitted;
  Alcotest.(check int) "totals agree on sheds"
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Eval.Load_exp.shed)
    totals.Nearby.Admission.shed_total;
  Alcotest.(check bool) "labeled shed counter matches" true
    (Simkit.Metrics.counter art.Eval.Load_exp.metrics "admission_shed_total"
       ~labels:[ ("reason", "slo") ]
    > 0);
  Alcotest.(check bool) "windowed queue depth recorded" true
    (List.mem Nearby.Admission.depth_series_name
       (Simkit.Timeseries.names art.Eval.Load_exp.timeseries));
  let sheds =
    List.filter
      (fun (e : Simkit.Flight_recorder.event) -> e.kind = "admission")
      (Simkit.Flight_recorder.events art.Eval.Load_exp.recorder)
  in
  Alcotest.(check bool) "flight recorder saw the shed" true (sheds <> [])

let test_scale_smoke () =
  (* ~10k arrivals under-saturation: a healthy fleet sheds nothing and the
     memoized measurement path keeps this fast. *)
  let config =
    {
      base_config with
      arrival = Simkit.Workload.Poisson { rate_per_s = 2_000.0 };
      duration_ms = 5_000.0;
      service_rate_per_s = 3_000.0;
      batch = 64;
      queue_cap = 4_000;
      policy = "slo";
      seed = 3;
    }
  in
  let r = Eval.Load_exp.run config in
  Alcotest.(check bool) "ten thousand arrivals" true (r.Eval.Load_exp.offered > 9_000);
  Alcotest.(check int) "healthy fleet sheds nothing" 0
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Eval.Load_exp.shed);
  Alcotest.(check (float 1e-9)) "all complete" 1.0 r.Eval.Load_exp.completion_rate;
  Alcotest.(check bool) "p99 within budget" true r.Eval.Load_exp.p99_within_budget

let suite =
  ( "load_exp",
    [
      Alcotest.test_case "slo vs drop-tail headline" `Slow test_headline_slo_vs_drop_tail;
      Alcotest.test_case "deadline policy" `Slow test_deadline_policy;
      Alcotest.test_case "deterministic in seed" `Slow test_determinism;
      Alcotest.test_case "churn and mobility" `Slow test_churn_and_mobility;
      Alcotest.test_case "result json shape" `Slow test_result_json_shape;
      Alcotest.test_case "instrumented artifacts" `Slow test_instrumented_artifacts;
      Alcotest.test_case "scale smoke" `Slow test_scale_smoke;
    ] )
