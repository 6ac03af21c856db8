type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  k : int;
  replicas : int;
  loss : float;
  scenario : string;
  arrival_window_ms : float;
  sync_period_ms : float;
  rpc : Simkit.Rpc.config;
  detector : Simkit.Failure_detector.config;
  slos : Simkit.Slo.spec list;
  slo_window_ms : float;
  audit_rate : float;
  seed : int;
}

let default_config =
  {
    routers = 2000;
    peers = 300;
    landmark_count = 8;
    k = 5;
    replicas = 3;
    loss = 0.0;
    scenario = "crash-primary";
    arrival_window_ms = 8_000.0;
    sync_period_ms = 2_000.0;
    rpc = Simkit.Rpc.default_config;
    detector = Simkit.Failure_detector.default_config;
    slos = [];
    slo_window_ms = 500.0;
    audit_rate = 0.0;
    seed = 1;
  }

let quick_config = { default_config with routers = 800; peers = 120 }

let scenario_names = [ "none"; "crash-primary"; "loss-burst"; "partition" ]

type result = {
  scenario : string;
  replicas : int;
  loss : float;
  joins : int;
  completed : int;
  failed : int;
  completion_rate : float;
  join_p50_ms : float;
  join_p99_ms : float;
  rpc_attempts : int;
  rpc_retries : int;
  rpc_timeouts : int;
  rpc_gave_up : int;
  suspicions : int;
  sync_rounds : int;
  recovery_ms : float option;
  consistent : bool;
  live_peer_counts : int list;
  dropped_loss : int;
  dropped_unreachable : int;
  dropped_partition : int;
  slo_breaches : string list;
}

(* Everything worth keeping after a run besides the headline numbers: the
   live traces, the windowed timeseries the SLOs were judged on, the
   flight recorder, and the final SLO verdicts.  The CLI uses these for
   --metrics-out / --prom-out / --flight-out; tests poke at them
   directly. *)
type artifacts = {
  exp_trace : Simkit.Trace.t;
  rpc_trace : Simkit.Trace.t;
  cluster_trace : Simkit.Trace.t;
  transport_counters : (string * int) list;
  audit_trace : Simkit.Trace.t option;
  timeseries : Simkit.Timeseries.t;
  recorder : Simkit.Flight_recorder.t;
  slo_statuses : Simkit.Slo.status list;
}

(* Partition scenario target: the primary replica's router and its direct
   graph neighbors — a one-hop subtree cut off from the rest of the map. *)
let partition_ball graph ~center =
  center :: Array.to_list (Topology.Graph.neighbors graph center)

let scenario_of config ~graph ~primary_router : Simkit.Fault.t =
  let w = config.arrival_window_ms in
  match config.scenario with
  | "none" -> Simkit.Fault.none
  | "crash-primary" ->
      Simkit.Fault.crash_primary ~crash_at:(0.25 *. w) ~recover_at:(0.75 *. w) ()
  | "loss-burst" ->
      Simkit.Fault.loss_burst ~base:config.loss ~from_ms:(0.25 *. w) ~until_ms:(0.6 *. w)
        ~loss:0.3 ()
  | "partition" ->
      Simkit.Fault.partition_window ~from_ms:(0.25 *. w) ~until_ms:(0.6 *. w)
        ~nodes:(partition_ball graph ~center:primary_router) ()
  | other ->
      invalid_arg
        (Printf.sprintf "Resilience_exp: unknown scenario %S (expected %s)" other
           (String.concat " | " scenario_names))

let run_instrumented ?(spans = Simkit.Span.noop) (config : config) =
  if config.replicas < 1 then invalid_arg "Resilience_exp: replicas must be >= 1";
  if config.loss < 0.0 || config.loss >= 1.0 then
    invalid_arg "Resilience_exp: loss outside [0, 1)";
  let w =
    Workload.build ~routers:config.routers ~landmark_count:config.landmark_count
      ~peers:config.peers ~seed:config.seed ()
  in
  let graph = Workload.graph w in
  let engine = Simkit.Engine.create () in
  let transport =
    Simkit.Transport.create ~rng:(Prelude.Prng.split w.rng) ~loss_prob:config.loss engine
      w.ctx.oracle
  in
  let recorder = Simkit.Flight_recorder.create ~capacity:1024 () in
  (* Replica hosts: medium-degree routers, like landmarks but an
     independent draw (management servers are infrastructure, not peers). *)
  let replica_routers =
    Nearby.Landmark.place graph Medium_degree ~count:config.replicas
      ~rng:(Prelude.Prng.split w.rng)
  in
  let client_router = w.map.core.(0) in
  (* One shared sink for cluster, RPC layer and servers: a single span-id
     space, so cross-component parent links resolve inside one file. *)
  let cluster =
    Nearby.Cluster.create ~detector_config:config.detector ~transport ~client_router ~spans
      ~make_server:(fun () ->
        Nearby.Server.create ?latency:w.ctx.latency ~spans w.ctx.oracle ~landmarks:w.landmarks)
      ~restore_server:(fun data ->
        Nearby.Server.restore ?latency:w.ctx.latency ~spans w.ctx.oracle data)
      ~routers:replica_routers ~recorder ()
  in
  let rpc =
    Simkit.Rpc.create ~config:config.rpc ~rng:(Prelude.Prng.split w.rng) ~recorder ~spans
      transport
  in
  let protocol = Nearby.Protocol.create_resilient ?latency:w.ctx.latency ~rpc cluster in
  (* Fault script wired to the real knobs. *)
  let fault = scenario_of config ~graph ~primary_router:replica_routers.(0) in
  Simkit.Fault.install ~recorder fault ~engine
    ~hooks:
      {
        Simkit.Fault.crash_replica = (fun i -> Nearby.Cluster.crash cluster i);
        recover_replica = (fun i -> Nearby.Cluster.recover cluster i);
        set_loss = (fun p -> Simkit.Transport.set_loss_prob transport p);
        partition = (fun nodes -> Simkit.Transport.set_partition_nodes transport nodes);
        heal_partition = (fun () -> Simkit.Transport.clear_partition transport);
      };
  (* Horizon: every arrival has started, the slowest possible RPC (all
     attempts timing out, backoffs included) has resolved, and at least a
     couple of sync rounds have run past the last fault action. *)
  let worst_rpc_ms =
    let c = config.rpc in
    let backoffs = ref 0.0 in
    for a = 1 to c.max_attempts - 1 do
      backoffs :=
        !backoffs
        +. (c.backoff_base_ms *. (c.backoff_multiplier ** float_of_int (a - 1)) *. (1.0 +. c.jitter_frac))
    done;
    (float_of_int c.max_attempts *. c.timeout_ms) +. !backoffs
  in
  let horizon =
    config.arrival_window_ms +. worst_rpc_ms +. (3.0 *. config.sync_period_ms) +. 1_000.0
  in
  Nearby.Cluster.start_sync cluster ~period_ms:config.sync_period_ms ~until:horizon;
  let exp_trace = Simkit.Trace.create () in
  (* The windowed view the SLOs are judged on: size the ring so no window
     inside the horizon is ever evicted. *)
  if config.slo_window_ms <= 0.0 then invalid_arg "Resilience_exp: slo_window_ms must be positive";
  let timeseries =
    Simkit.Timeseries.create
      ~capacity:(max 64 (int_of_float (horizon /. config.slo_window_ms) + 8))
      ~window_ms:config.slo_window_ms ()
  in
  let auditor =
    if config.audit_rate > 0.0 then
      Some
        (Nearby.Audit.create ~rate:config.audit_rate ~seed:config.seed ~timeseries
           ~clock:(fun () -> Simkit.Engine.now engine)
           (Nearby.Cluster.measurement_server cluster))
    else None
  in
  let monitor = Simkit.Slo.monitor config.slos in
  let breached_ever = ref [] in
  (* Poll the SLOs once per window; the monitor fires only on transition
     edges, each of which lands in the flight recorder. *)
  if config.slos <> [] then begin
    let on_breach (st : Simkit.Slo.status) =
      if not (List.mem st.spec.name !breached_ever) then
        breached_ever := st.spec.name :: !breached_ever;
      (* Cross-link the breach to a concrete offender: the trace id behind
         the worst join-latency bucket seen so far, when joins are being
         traced.  Jumping from the breach event to the span tree is exactly
         the debugging move the exemplars exist for. *)
      let exemplar_args =
        match Simkit.Trace.top_exemplar exp_trace "join_ms" with
        | Some (e : Simkit.Trace.exemplar) ->
            [ ("exemplar_trace_id", Simkit.Span.Int e.trace_id) ]
        | None -> []
      in
      Simkit.Flight_recorder.record recorder ~ts:(Simkit.Engine.now engine) ~kind:"slo"
        ~args:
          ([
             ("burn_rate", Simkit.Span.Float st.burn_rate);
             ("worst", Simkit.Span.Float st.worst);
           ]
          @ exemplar_args)
        ("breach: " ^ st.spec.name)
    in
    let on_clear (st : Simkit.Slo.status) =
      Simkit.Flight_recorder.record recorder ~ts:(Simkit.Engine.now engine) ~kind:"slo"
        ~args:[ ("burn_rate", Simkit.Span.Float st.burn_rate) ]
        ("clear: " ^ st.spec.name)
    in
    let rec poll_at t =
      if t <= horizon then
        Simkit.Engine.schedule_at engine ~time:t (fun () ->
            ignore (Simkit.Slo.poll ~on_breach ~on_clear monitor timeseries);
            poll_at (t +. config.slo_window_ms))
    in
    poll_at config.slo_window_ms
  end;
  let completed = ref 0 and failed = ref 0 in
  for peer = 0 to config.peers - 1 do
    let at = Prelude.Prng.float w.rng config.arrival_window_ms in
    Simkit.Engine.schedule_at engine ~time:at (fun () ->
        let started = Simkit.Engine.now engine in
        Simkit.Timeseries.observe timeseries "join_started" ~now:started 1.0;
        (* Remember which trace this join opened so its latency sample can
           carry the trace id as an exemplar tag (0 when tracing is off). *)
        let join_trace = ref 0 in
        Nearby.Protocol.join protocol ~peer ~attach_router:w.peer_routers.(peer) ~k:config.k
          ~on_trace:(fun ctx -> join_trace := ctx.Simkit.Span.trace_id)
          ~on_complete:(fun _info reply ->
            incr completed;
            let now = Simkit.Engine.now engine in
            Simkit.Trace.observe ~trace_id:!join_trace exp_trace "join_ms" (now -. started);
            Simkit.Timeseries.observe timeseries "join_ms" ~now (now -. started);
            Simkit.Timeseries.observe timeseries "join_completed" ~now 1.0;
            match auditor with
            | Some a -> Nearby.Audit.sample_reply a ~peer ~reply
            | None -> ())
          ~on_failure:(fun () ->
            incr failed;
            let now = Simkit.Engine.now engine in
            Simkit.Timeseries.observe timeseries "join_failed" ~now 1.0))
  done;
  Simkit.Engine.run engine ~until:horizon;
  (* Settle: one final reconciliation so the consistency check sees the
     state anti-entropy converges to, not a mid-period cut. *)
  Nearby.Cluster.sync_round cluster;
  Nearby.Cluster.check_invariants cluster;
  let rpc_trace = Simkit.Rpc.trace rpc in
  let cluster_trace = Nearby.Cluster.trace cluster in
  let transport_stat name = List.assoc name (Simkit.Transport.stats transport) in
  let quantile q =
    match Simkit.Trace.quantile exp_trace "join_ms" q with Some v -> v | None -> nan
  in
  let live_peer_counts =
    List.init (Nearby.Cluster.replica_count cluster) (fun i -> i)
    |> List.filter (Nearby.Cluster.is_alive cluster)
    |> List.map (fun i -> Nearby.Server.peer_count (Nearby.Cluster.server_of cluster i))
  in
  {
    scenario = fault.name;
    replicas = config.replicas;
    loss = config.loss;
    joins = config.peers;
    completed = !completed;
    failed = !failed;
    completion_rate = float_of_int !completed /. float_of_int config.peers;
    join_p50_ms = quantile 0.5;
    join_p99_ms = quantile 0.99;
    rpc_attempts = Simkit.Trace.counter rpc_trace "rpc_attempts";
    rpc_retries = Simkit.Trace.counter rpc_trace "rpc_retries";
    rpc_timeouts = Simkit.Trace.counter rpc_trace "rpc_timeouts";
    rpc_gave_up = Simkit.Trace.counter rpc_trace "rpc_gave_up";
    suspicions = Simkit.Trace.counter cluster_trace "cluster_suspected";
    sync_rounds = Simkit.Trace.counter cluster_trace "cluster_sync_rounds";
    recovery_ms =
      (match Simkit.Trace.summary cluster_trace "cluster_recovery_ms" with
      | Some s when s.count > 0 -> Some s.mean
      | _ -> None);
    consistent = Nearby.Cluster.consistent cluster;
    live_peer_counts;
    dropped_loss = transport_stat "dropped_loss";
    dropped_unreachable = transport_stat "dropped_unreachable";
    dropped_partition = transport_stat "dropped_partition";
    slo_breaches = List.rev !breached_ever;
  },
  {
    exp_trace;
    rpc_trace;
    cluster_trace;
    transport_counters = Simkit.Transport.stats transport;
    audit_trace = Option.map Nearby.Audit.trace auditor;
    timeseries;
    recorder;
    slo_statuses = Simkit.Slo.check timeseries config.slos;
  }

let run config = fst (run_instrumented config)

let result_json (r : result) : Simkit.Json.t =
  let open Simkit.Json in
  Obj
    [
      ("scenario", String r.scenario);
      ("replicas", Int r.replicas);
      ("loss", Number r.loss);
      ("joins", Int r.joins);
      ("completed", Int r.completed);
      ("failed", Int r.failed);
      ("completion_rate", Number r.completion_rate);
      ("join_p50_ms", Number r.join_p50_ms);
      ("join_p99_ms", Number r.join_p99_ms);
      ("rpc_attempts", Int r.rpc_attempts);
      ("rpc_retries", Int r.rpc_retries);
      ("rpc_timeouts", Int r.rpc_timeouts);
      ("rpc_gave_up", Int r.rpc_gave_up);
      ("suspicions", Int r.suspicions);
      ("sync_rounds", Int r.sync_rounds);
      ("recovery_ms", option (fun v -> Number v) r.recovery_ms);
      ("consistent", Bool r.consistent);
      ("live_peer_counts", List (List.map (fun i -> Int i) r.live_peer_counts));
      ("dropped_loss", Int r.dropped_loss);
      ("dropped_unreachable", Int r.dropped_unreachable);
      ("dropped_partition", Int r.dropped_partition);
      ("slo_breaches", List (List.map (fun s -> String s) r.slo_breaches));
    ]

(* BENCH_resilience.json: deterministic in the seed (simulated clock, no
   wall time), so the tolerances are tight. *)
let gate : Regression.table =
  let open Regression in
  each [ "runs" ] ~key:(fields [ "scenario"; "replicas" ]) (fun el this ->
      let key =
        Printf.sprintf "resilience/%s/r%s" (fields [ "scenario" ] el) (fields [ "replicas" ] el)
      in
      [
        row Higher_better ~tolerance:0.02 (key ^ "/completion_rate") (fun doc ->
            num [ "completion_rate" ] (this doc));
        row Lower_better ~tolerance:0.15 (key ^ "/join_p99_ms") (fun doc ->
            num [ "join_p99_ms" ] (this doc));
        row Exact (key ^ "/consistent") (fun doc -> flag [ "consistent" ] (this doc));
      ])

let print (r : result) =
  Printf.printf "Resilience: scenario=%s replicas=%d loss=%.2f\n" r.scenario r.replicas r.loss;
  Prelude.Table.print
    ~header:[ "metric"; "value" ]
    [
      [ "joins"; string_of_int r.joins ];
      [ "completed"; string_of_int r.completed ];
      [ "failed"; string_of_int r.failed ];
      [ "completion rate"; Prelude.Table.float_cell ~decimals:4 r.completion_rate ];
      [ "join p50 (ms)"; Prelude.Table.float_cell ~decimals:1 r.join_p50_ms ];
      [ "join p99 (ms)"; Prelude.Table.float_cell ~decimals:1 r.join_p99_ms ];
      [ "rpc attempts"; string_of_int r.rpc_attempts ];
      [ "rpc retries"; string_of_int r.rpc_retries ];
      [ "rpc timeouts"; string_of_int r.rpc_timeouts ];
      [ "rpc gave up"; string_of_int r.rpc_gave_up ];
      [ "suspicions"; string_of_int r.suspicions ];
      [ "sync rounds"; string_of_int r.sync_rounds ];
      [
        "recovery (ms)";
        (match r.recovery_ms with
        | Some v -> Prelude.Table.float_cell ~decimals:1 v
        | None -> "-");
      ];
      [ "consistent"; string_of_bool r.consistent ];
      [
        "live peer counts";
        String.concat " " (List.map string_of_int r.live_peer_counts);
      ];
      [ "dropped (loss)"; string_of_int r.dropped_loss ];
      [ "dropped (unreachable)"; string_of_int r.dropped_unreachable ];
      [ "dropped (partition)"; string_of_int r.dropped_partition ];
      [ "slo breaches"; (match r.slo_breaches with [] -> "-" | l -> String.concat " " l) ];
    ]
