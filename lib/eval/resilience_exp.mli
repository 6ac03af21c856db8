(** Fault-injection experiment over the resilient join path.

    Peers arrive uniformly over a window and join through {!Simkit.Rpc}
    against an N-replica {!Nearby.Cluster} while a scripted {!Simkit.Fault}
    scenario crashes replicas, raises packet loss or partitions the
    primary's subtree.  The headline numbers are the ones the resilience
    layer is supposed to guarantee: join completion rate (must be 1.0 with
    a surviving replica), join-latency tail, and how long a recovered
    replica takes to be back in sync. *)

type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  k : int;
  replicas : int;
  loss : float;  (** Baseline loss probability, [0, 1). *)
  scenario : string;  (** One of {!scenario_names}. *)
  arrival_window_ms : float;  (** Joins arrive uniformly in [0, window]. *)
  sync_period_ms : float;  (** Anti-entropy period. *)
  rpc : Simkit.Rpc.config;
  detector : Simkit.Failure_detector.config;
  slos : Simkit.Slo.spec list;
      (** Objectives polled once per [slo_window_ms]; breach / clear edges
          land in the flight recorder. *)
  slo_window_ms : float;  (** Timeseries window width (and SLO poll period). *)
  audit_rate : float;
      (** Fraction of completed joins audited online against BFS ground
          truth ({!Nearby.Audit}); 0 disables the auditor. *)
  seed : int;
}

val default_config : config
(** 2000 routers, 300 peers, 3 replicas, crash-primary, no baseline loss. *)

val quick_config : config

val scenario_names : string list
(** ["none"; "crash-primary"; "loss-burst"; "partition"].  Faults fire at
    fixed fractions of the arrival window: crash at 25% / recover at 75%;
    loss and partition windows span 25%–60%. *)

type result = {
  scenario : string;
  replicas : int;
  loss : float;
  joins : int;
  completed : int;
  failed : int;  (** Joins whose RPC gave up — never silent stalls. *)
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
      (** Mean crash-to-back-in-sync time; [None] when nothing recovered. *)
  consistent : bool;  (** All live replicas hold the same peer set. *)
  live_peer_counts : int list;
  dropped_loss : int;
  dropped_unreachable : int;
  dropped_partition : int;
  slo_breaches : string list;
      (** Names of objectives that breached at any point during the run
          (possibly since cleared), in breach order. *)
}

type artifacts = {
  exp_trace : Simkit.Trace.t;  (** Stream ["join_ms"]. *)
  rpc_trace : Simkit.Trace.t;
  cluster_trace : Simkit.Trace.t;
  transport_counters : (string * int) list;
  audit_trace : Simkit.Trace.t option;  (** Present when [audit_rate > 0]. *)
  timeseries : Simkit.Timeseries.t;
      (** Series ["join_started"], ["join_completed"], ["join_failed"],
          ["join_ms"], plus the auditor's quality streams when enabled. *)
  recorder : Simkit.Flight_recorder.t;
      (** RPC outcomes, cluster membership changes, injected faults and SLO
          transitions, ready for a [--flight-out] JSONL dump. *)
  slo_statuses : Simkit.Slo.status list;  (** Final end-of-run verdicts. *)
}

val run : config -> result
(** Deterministic in [config.seed].
    @raise Invalid_argument on an unknown scenario, [replicas < 1] or loss
    outside [0, 1). *)

val run_instrumented : ?spans:Simkit.Span.sink -> config -> result * artifacts
(** {!run}, also returning the live observability artifacts.

    [spans] (default: the noop sink) receives the causal span trees of the
    whole run: one root ["join"] span per peer with its measurement, RPC
    attempts, server-side registration subtree and replication fan-out
    hanging off it, plus the cluster's ["sync_round"] roots.  The same
    sink is shared by the RPC layer, the cluster and every replica server,
    so all parent links resolve within one file.  When tracing is on, the
    [exp_trace] ["join_ms"] samples are tagged with their join's trace id
    (tail exemplars) and SLO breach events carry an [exemplar_trace_id]
    pointing at the worst-bucket join seen so far. *)

val result_json : result -> Simkit.Json.t
(** One JSON object (no trailing newline). *)

val gate : Regression.table
(** The BENCH_resilience.json gate table, per scenario × replica count:
    completion rate (0.02), join p99 in simulated ms (0.15) and the
    consistency bit (exact). *)

val print : result -> unit
