(** The bytes-on-wire experiment behind [bench wire] / BENCH_wire.json.

    Measures what the protocol actually costs on the wire: bytes per
    join, bytes per query, replication amplification, anti-entropy
    snapshot cost, and what batching saves — all read back from the
    transport's labeled wire accounting ([wire_bytes_total{kind,dir}],
    [wire_dropped_bytes_total{reason}]).

    Two phases over the same seeded workload: a {e singleton} phase where
    every peer joins through its own resilient RPC under a mid-window
    loss burst (so retry, dropped and snapshot byte buckets are all
    nonzero in one run), and a lossless {e batched} phase joining the
    same peers through [Protocol.join_many] in [batch]-sized chunks
    (isolating the [Path_report_batch] upload saving).  Deterministic in
    the seed. *)

type config = {
  routers : int;
  peers : int;  (** Joins per phase. *)
  landmark_count : int;
  k : int;
  replicas : int;
  batch : int;  (** Chunk size of the batched phase. *)
  loss : float;  (** Burst loss probability over 25%–60% of the window. *)
  arrival_window_ms : float;
  sync_period_ms : float;
  rpc : Simkit.Rpc.config;
  seed : int;
}

val default_config : config
(** The headline shape: 3 replicas, 10k joins, batch 256, 0.3 loss burst. *)

val quick_config : config
(** CI shape: 800 routers, 1.5k joins. *)

type kind_row = { kind : string; bytes : int; msgs : int }
(** One message kind summed over directions, from the singleton phase. *)

type result = {
  joins : int;
  completed : int;
  failed : int;
  completion_rate : float;
  bytes_sent : int;  (** Delivered bytes, singleton phase. *)
  bytes_dropped : int;
  messages : int;
  bytes_per_join : float;
      (** Request+reply-direction bytes (reports, queries, replies,
          retries — not replica fan-out) per completed join. *)
  bytes_per_query : float;  (** (query + reply kind bytes) per completed join. *)
  replication_amplification : float;
      (** {!Nearby.Cluster.replication_amplification} — exactly the
          replica count under verbatim write fan-out. *)
  snapshot_bytes : int;  (** Anti-entropy repair traffic ([kind="snapshot"]). *)
  retry_bytes : int;
  fd_probe_bytes : int;
  dropped_loss_bytes : int;
  dropped_unreachable_bytes : int;
  dropped_partition_bytes : int;
  kinds : kind_row list;  (** Largest first. *)
  top_talkers : Simkit.Transport.talker list;  (** Top 5 endpoints. *)
  singleton_report_bytes : int;
      (** Client-uploaded report bytes of the singleton phase (each
          report counted once, loss-independent). *)
  batch_joins : int;
  batch_completed : int;
  batch_report_bytes : int;
      (** Client-uploaded report bytes of the batched phase. *)
  batch_saving_ratio : float;
      (** [singleton_report_bytes / batch_report_bytes] — > 1 when the
          batch frame amortizes per-report overhead. *)
  batch_bytes_per_join : float;
  accounted : bool;
      (** Both phases reconcile: Σ [wire_bytes_total] =
          [Transport.bytes_sent] and Σ [wire_dropped_bytes_total] =
          [Transport.bytes_dropped]. *)
}

val run : config -> result
(** @raise Invalid_argument on replicas < 1, loss outside [0, 1) or
    batch < 1. *)

val result_json : result -> Simkit.Json.t
(** The result as one JSON object (the ["wire"] section of
    BENCH_wire.json). *)

val gate : Regression.table
(** The BENCH_wire.json gate table: bytes/join and bytes/query (0.1 —
    deterministic simulated byte counts), snapshot repair bytes per join
    (0.5), the batching saving ratio (0.05), and the structural bits
    exact — accounting reconciles, replication amplification equals the
    committed value, batching saves upload bytes — plus invariants on the
    current run (every message kind moved bytes, per-kind and per-reason
    bytes sum to the aggregates, the loss burst dropped bytes, …). *)

val print : result -> unit
