(* The state-health experiment: does the cluster notice when its replicas
   drift apart, how fast does anti-entropy pull them back, and how stale do
   the served reports get while all that happens?

   One scenario, deterministic in the seed: peers join through the
   resilient RPC path while a loss burst over part of the arrival window
   drops replica fan-outs, so the replicas genuinely diverge.  A digest
   check polls at failure-detector-ish rate (finer than the sync period),
   which is what turns "the replicas differ" into a detection event with a
   timestamp; the periodic sync rounds repair the drift and close each
   divergence episode.  Everything reported is read back from the
   instruments a deployment would watch: the [cluster_divergent_replicas]
   gauge, the [cluster_digest_checks_total{result}] counters, the
   divergence/convergence flight-recorder edges, the
   ["cluster_antientropy_lag_ms"] stream and the report-age staleness
   quantiles. *)

type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  k : int;
  replicas : int;
  loss : float;
  arrival_window_ms : float;
  sync_period_ms : float;
  check_period_ms : float;  (* digest-check poll period, << sync period *)
  rpc : Simkit.Rpc.config;
  seed : int;
}

let default_config =
  {
    routers = 2000;
    peers = 8_000;
    landmark_count = 8;
    k = 5;
    replicas = 3;
    loss = 0.4;
    arrival_window_ms = 20_000.0;
    sync_period_ms = 2_000.0;
    check_period_ms = 250.0;
    rpc = Simkit.Rpc.default_config;
    seed = 1;
  }

let quick_config =
  { default_config with routers = 800; peers = 1_200; arrival_window_ms = 8_000.0 }

type result = {
  joins : int;
  completed : int;
  failed : int;
  completion_rate : float;
  digest_checks : int;
  checks_consistent : int;
  checks_divergent : int;
  divergence_episodes : int;  (* flight-recorder "divergence" edges *)
  convergence_episodes : int;  (* flight-recorder "convergence" edges *)
  max_divergent_replicas : int;
  detection_latency_ms : float;
      (* loss-burst onset to the first divergence edge; nan if none *)
  lag_count : int;  (* closed episodes measured by the lag stream *)
  lag_p50_ms : float;
  lag_max_ms : float;
  sync_rounds : int;
  sync_restores : int;
  sync_skipped : int;
  sync_bytes : int;
  snapshot_wire_bytes : int;
  report_age_p50_ms : float;
  report_age_p90_ms : float;
  report_age_p99_ms : float;
  report_age_oldest_ms : float;
  refresh_total : int;
  refresh_rate_hz : float;
  final_divergent : int;  (* gauge reading after the last check *)
  converged : bool;  (* every episode closed and the end-state agrees *)
}

(* Labeled-registry read-back: total [wire_bytes_total] carried under one
   kind label, summed over directions. *)
let kind_bytes metrics kind =
  List.fold_left
    (fun acc (n, labels, _) ->
      if n = "wire_bytes_total" && List.assoc_opt "kind" labels = Some kind then
        acc + Simkit.Metrics.counter metrics n ~labels
      else acc)
    0
    (Simkit.Metrics.series metrics)

let worst_rpc_ms (c : Simkit.Rpc.config) =
  let backoffs = ref 0.0 in
  for a = 1 to c.max_attempts - 1 do
    backoffs :=
      !backoffs
      +. (c.backoff_base_ms *. (c.backoff_multiplier ** float_of_int (a - 1)) *. (1.0 +. c.jitter_frac))
  done;
  (float_of_int c.max_attempts *. c.timeout_ms) +. !backoffs

let run (config : config) =
  if config.replicas < 2 then invalid_arg "Health_exp: divergence needs >= 2 replicas";
  if config.loss <= 0.0 || config.loss >= 1.0 then
    invalid_arg "Health_exp: loss outside (0, 1)";
  if config.check_period_ms <= 0.0 then invalid_arg "Health_exp: check period must be positive";
  let w =
    Workload.build ~routers:config.routers ~landmark_count:config.landmark_count
      ~peers:config.peers ~seed:config.seed ()
  in
  let engine = Simkit.Engine.create () in
  let metrics = Simkit.Metrics.create () in
  let recorder = Simkit.Flight_recorder.create ~capacity:4096 () in
  let transport =
    Simkit.Transport.create ~rng:(Prelude.Prng.split w.rng) ~metrics engine w.ctx.oracle
  in
  let replica_routers =
    Nearby.Landmark.place (Workload.graph w) Medium_degree ~count:config.replicas
      ~rng:(Prelude.Prng.split w.rng)
  in
  let client_router = w.map.core.(0) in
  let cluster =
    Nearby.Cluster.create ~recorder ~metrics ~transport ~client_router
      ~make_server:(fun () ->
        Nearby.Server.create ?latency:w.ctx.latency w.ctx.oracle ~landmarks:w.landmarks)
      ~restore_server:(fun data ->
        Nearby.Server.restore ?latency:w.ctx.latency w.ctx.oracle data)
      ~routers:replica_routers ()
  in
  let rpc = Simkit.Rpc.create ~config:config.rpc ~rng:(Prelude.Prng.split w.rng) transport in
  let protocol = Nearby.Protocol.create_resilient ?latency:w.ctx.latency ~rpc cluster in
  let aw = config.arrival_window_ms in
  let loss_start = 0.25 *. aw in
  Simkit.Engine.schedule_at engine ~time:loss_start (fun () ->
      Simkit.Transport.set_loss_prob transport config.loss);
  Simkit.Engine.schedule_at engine ~time:(0.6 *. aw) (fun () ->
      Simkit.Transport.set_loss_prob transport 0.0);
  let horizon =
    aw +. worst_rpc_ms config.rpc +. (3.0 *. config.sync_period_ms) +. 1_000.0
  in
  Nearby.Cluster.start_sync cluster ~period_ms:config.sync_period_ms ~until:horizon;
  (* The detection poll: much finer than the sync period, so an episode's
     opening edge carries a timestamp close to when the drift happened, not
     just "sometime before the next repair". *)
  let max_divergent = ref 0 in
  let rec poll at =
    if at <= horizon then
      Simkit.Engine.schedule_at engine ~time:at (fun () ->
          let divergent = Nearby.Cluster.digest_check cluster in
          max_divergent := max !max_divergent (List.length divergent);
          poll (at +. config.check_period_ms))
  in
  poll config.check_period_ms;
  let completed = ref 0 and failed = ref 0 in
  for peer = 0 to config.peers - 1 do
    let at = Prelude.Prng.float w.rng config.arrival_window_ms in
    Simkit.Engine.schedule_at engine ~time:at (fun () ->
        Nearby.Protocol.join protocol ~peer ~attach_router:w.peer_routers.(peer) ~k:config.k
          ~on_complete:(fun _info _reply -> incr completed)
          ~on_failure:(fun () -> incr failed))
  done;
  Simkit.Engine.run engine ~until:horizon;
  Nearby.Cluster.sync_round cluster;
  let final_divergent = List.length (Nearby.Cluster.digest_check cluster) in
  Nearby.Cluster.check_invariants cluster;
  let ctrace = Nearby.Cluster.trace cluster in
  let counter = Simkit.Trace.counter ctrace in
  let check_count result =
    Simkit.Metrics.counter metrics "cluster_digest_checks_total" ~labels:[ ("result", result) ]
  in
  let edges detail =
    List.length
      (List.filter
         (fun (e : Simkit.Flight_recorder.event) -> e.kind = "cluster" && e.detail = detail)
         (Simkit.Flight_recorder.events recorder))
  in
  (* First divergence edge at or after the loss onset: fine polling also
     catches transient in-flight replication (a fan-out between send and
     delivery), so edges before the burst exist and are not what the burst
     caused. *)
  let detection_latency_ms =
    Simkit.Flight_recorder.events recorder
    |> List.find_opt (fun (e : Simkit.Flight_recorder.event) ->
           e.kind = "cluster" && e.detail = "divergence" && e.ts >= loss_start)
    |> function
    | Some e -> e.ts -. loss_start
    | None -> Float.nan
  in
  let lag = Simkit.Trace.summary ctrace "cluster_antientropy_lag_ms" in
  (* Fleet staleness at the horizon: one fresh tracker per replica (the
     servers may have been replaced by catch-up restores, so trackers are
     not kept across the run), ages merged into one sketch. *)
  let fleet_ages = Prelude.Sketch.create () in
  let oldest = ref 0.0 in
  for i = 0 to Nearby.Cluster.replica_count cluster - 1 do
    let tracker = Nearby.Staleness.create (Nearby.Cluster.server_of cluster i) in
    let report =
      Nearby.Staleness.observe ~metrics
        ~labels:[ ("replica", string_of_int i) ]
        tracker ~now:horizon
    in
    if report.oldest_ms > !oldest then oldest := report.oldest_ms;
    Prelude.Sketch.merge_into ~into:fleet_ages (Nearby.Staleness.age_sketch tracker)
  done;
  let age q =
    if Prelude.Sketch.is_empty fleet_ages then Float.nan else Prelude.Sketch.quantile fleet_ages q
  in
  let refresh_total =
    Simkit.Trace.counter (Nearby.Cluster.fleet_trace cluster) "report_refresh"
  in
  let divergence_episodes = edges "divergence" in
  let convergence_episodes = edges "convergence" in
  {
    joins = config.peers;
    completed = !completed;
    failed = !failed;
    completion_rate =
      (if config.peers = 0 then Float.nan
       else float_of_int !completed /. float_of_int config.peers);
    digest_checks = counter "cluster_digest_checks";
    checks_consistent = check_count "consistent";
    checks_divergent = check_count "divergent";
    divergence_episodes;
    convergence_episodes;
    max_divergent_replicas = !max_divergent;
    detection_latency_ms;
    lag_count = (match lag with Some s -> s.count | None -> 0);
    lag_p50_ms = (match lag with Some s -> s.p50 | None -> Float.nan);
    lag_max_ms = (match lag with Some s -> Option.value s.max ~default:Float.nan | None -> Float.nan);
    sync_rounds = counter "cluster_sync_rounds";
    sync_restores = counter "cluster_sync_restores";
    sync_skipped = counter "cluster_sync_skipped";
    sync_bytes = counter "cluster_sync_bytes";
    snapshot_wire_bytes = kind_bytes metrics "snapshot";
    report_age_p50_ms = age 0.5;
    report_age_p90_ms = age 0.9;
    report_age_p99_ms = age 0.99;
    report_age_oldest_ms = !oldest;
    refresh_total;
    refresh_rate_hz = float_of_int refresh_total /. (horizon /. 1000.0);
    final_divergent;
    converged = final_divergent = 0 && divergence_episodes = convergence_episodes;
  }

(* --- Rendering ---------------------------------------------------------- *)

let result_json (r : result) : Simkit.Json.t =
  let open Simkit.Json in
  Obj
    [
      ("joins", Int r.joins);
      ("completed", Int r.completed);
      ("failed", Int r.failed);
      ("completion_rate", Number r.completion_rate);
      ("digest_checks", Int r.digest_checks);
      ("checks_consistent", Int r.checks_consistent);
      ("checks_divergent", Int r.checks_divergent);
      ("divergence_episodes", Int r.divergence_episodes);
      ("convergence_episodes", Int r.convergence_episodes);
      ("max_divergent_replicas", Int r.max_divergent_replicas);
      ("detection_latency_ms", Number r.detection_latency_ms);
      ("lag_count", Int r.lag_count);
      ("lag_p50_ms", Number r.lag_p50_ms);
      ("lag_max_ms", Number r.lag_max_ms);
      ("sync_rounds", Int r.sync_rounds);
      ("sync_restores", Int r.sync_restores);
      ("sync_skipped", Int r.sync_skipped);
      ("sync_bytes", Int r.sync_bytes);
      ("snapshot_wire_bytes", Int r.snapshot_wire_bytes);
      ("report_age_p50_ms", Number r.report_age_p50_ms);
      ("report_age_p90_ms", Number r.report_age_p90_ms);
      ("report_age_p99_ms", Number r.report_age_p99_ms);
      ("report_age_oldest_ms", Number r.report_age_oldest_ms);
      ("refresh_total", Int r.refresh_total);
      ("refresh_rate_hz", Number r.refresh_rate_hz);
      ("final_divergent", Int r.final_divergent);
      ("converged", Bool r.converged);
    ]

(* BENCH_health.json: completion and the poll-quantized latencies gate
   with slack; the structural bits are exact — the loss burst produces at
   least one detected divergence episode, every episode closes, the run
   reconverges and the digest gate saves at least one transfer.  The
   invariants are the run's own consistency checks, judged on the
   current document alone. *)
let gate : Regression.table =
  let open Regression in
  let h field doc = num [ "health"; field ] doc in
  let invariant name holds = row Invariant ("health/invariant/" ^ name) (fun doc -> bit (holds doc)) in
  rows
    [
      row Higher_better ~tolerance:0.02 "health/completion_rate" (h "completion_rate");
      row Exact "health/divergence_detected" (fun doc -> bit (h "divergence_episodes" doc > 0.0));
      row Exact "health/episodes_closed" (fun doc ->
          bit (h "divergence_episodes" doc = h "convergence_episodes" doc));
      row Exact "health/converged" (flag [ "health"; "converged" ]);
      row Lower_better ~tolerance:0.5 "health/detection_latency_ms" (h "detection_latency_ms");
      row Lower_better ~tolerance:0.5 "health/lag_p50_ms" (h "lag_p50_ms");
      row Lower_better ~tolerance:0.25 "health/report_age_p50_ms" (h "report_age_p50_ms");
      row Exact "health/digest_gate_saves_transfers" (fun doc -> bit (h "sync_skipped" doc > 0.0));
      (* The burst really diverged the replicas and the polls saw it. *)
      invariant "burst_diverged" (fun doc -> h "divergence_episodes" doc >= 1.0);
      invariant "check_read_divergent" (fun doc -> h "checks_divergent" doc >= 1.0);
      invariant "replicas_diverged" (fun doc -> h "max_divergent_replicas" doc >= 1.0);
      (* Every episode closed: one convergence edge and one lag sample per
         divergence edge, and nothing divergent at the horizon. *)
      invariant "episodes_balanced" (fun doc ->
          h "convergence_episodes" doc = h "divergence_episodes" doc);
      invariant "lag_per_episode" (fun doc -> h "lag_count" doc = h "divergence_episodes" doc);
      invariant "none_divergent_at_end" (fun doc -> h "final_divergent" doc = 0.0);
      invariant "converged" (fun doc -> flag [ "health"; "converged" ] doc = 1.0);
      (* Detection ran at poll granularity (null: nothing to detect). *)
      invariant "detection_latency_sane" (fun doc ->
          match Simkit.Json.path [ "health"; "detection_latency_ms" ] doc with
          | Some Null -> true
          | _ -> h "detection_latency_ms" doc >= 0.0);
      (* The digest gate saved transfers while the fleet was in sync, and
         real drift still paid for its snapshot restores. *)
      invariant "gate_skipped_transfer" (fun doc -> h "sync_skipped" doc >= 1.0);
      invariant "straggler_restored" (fun doc -> h "sync_restores" doc >= 1.0);
      invariant "snapshot_bytes_on_wire" (fun doc -> h "snapshot_wire_bytes" doc > 0.0);
      (* Staleness: reports aged, refreshes tracked, quantiles ordered. *)
      invariant "refresh_per_join" (fun doc -> h "refresh_total" doc >= h "completed" doc);
      invariant "report_age_ordered" (fun doc ->
          0.0 <= h "report_age_p50_ms" doc
          && h "report_age_p50_ms" doc <= h "report_age_p99_ms" doc
          && h "report_age_p99_ms" doc <= h "report_age_oldest_ms" doc);
      invariant "completion_at_least_99pct" (fun doc -> h "completion_rate" doc >= 0.99);
    ]

let print (r : result) =
  Printf.printf "Health: joins=%d completed=%d episodes=%d converged=%b\n" r.joins r.completed
    r.divergence_episodes r.converged;
  Prelude.Table.print
    ~header:[ "metric"; "value" ]
    [
      [ "digest checks"; string_of_int r.digest_checks ];
      [ "checks consistent"; string_of_int r.checks_consistent ];
      [ "checks divergent"; string_of_int r.checks_divergent ];
      [ "divergence episodes"; string_of_int r.divergence_episodes ];
      [ "convergence episodes"; string_of_int r.convergence_episodes ];
      [ "max divergent replicas"; string_of_int r.max_divergent_replicas ];
      [ "detection latency ms"; Prelude.Table.float_cell ~decimals:1 r.detection_latency_ms ];
      [ "anti-entropy lag p50 ms"; Prelude.Table.float_cell ~decimals:1 r.lag_p50_ms ];
      [ "anti-entropy lag max ms"; Prelude.Table.float_cell ~decimals:1 r.lag_max_ms ];
      [ "sync rounds"; string_of_int r.sync_rounds ];
      [ "sync restores"; string_of_int r.sync_restores ];
      [ "sync skipped (digest gate)"; string_of_int r.sync_skipped ];
      [ "sync bytes"; string_of_int r.sync_bytes ];
      [ "snapshot wire bytes"; string_of_int r.snapshot_wire_bytes ];
      [ "report age p50 ms"; Prelude.Table.float_cell ~decimals:1 r.report_age_p50_ms ];
      [ "report age p90 ms"; Prelude.Table.float_cell ~decimals:1 r.report_age_p90_ms ];
      [ "report age p99 ms"; Prelude.Table.float_cell ~decimals:1 r.report_age_p99_ms ];
      [ "report age oldest ms"; Prelude.Table.float_cell ~decimals:1 r.report_age_oldest_ms ];
      [ "refreshes"; string_of_int r.refresh_total ];
      [ "refresh rate hz"; Prelude.Table.float_cell ~decimals:2 r.refresh_rate_hz ];
      [ "final divergent"; string_of_int r.final_divergent ];
    ]
