(** Gate tables for the BENCH documents bench/main.ml writes itself, and
    the index of every table the regression gate runs. *)

val registry : Regression.table
(** BENCH_registry.json: per-backend insert/query throughput relative to
    tree (tolerance 0.6) and the answers-identical bit (exact); per sweep
    point up to 100k members, answers-identical and member count (exact),
    bytes/member (0.5) and non-tree query throughput relative to tree at
    the same point (0.5). *)

val obs : Regression.table
(** BENCH_obs.json: per-backend insert/query p99 relative to tree (1.5 —
    tails are noisy), exemplar presence and introspection counts (exact);
    the sketch's bound bit (exact) and max relative error (0.5); the
    fleet's completion rate (0.02), merged p99 (0.15), bound bit (exact)
    and shard skew (0.5). *)

val all : (string * Regression.table) list
(** Every gated BENCH file with its table, in [bench regress] order. *)
