(** Gate tables for the BENCH documents bench/main.ml writes itself, and
    the index of every table the regression gate runs. *)

val registry : Regression.table
(** BENCH_registry.json: per-backend insert/query throughput relative to
    tree (tolerance 0.6) and the answers-identical bit (exact); per sweep
    point up to 100k members, answers-identical and member count (exact),
    bytes/member (0.5) and non-tree query throughput relative to tree at
    the same point (0.5); per tree batch-write point, [insert_many]'s
    per-entry time over looped [insert]'s (0.5), and single-insert time
    at 100k over 10k members (0.5). *)

val sweep_sanity : sizes:int list -> Simkit.Json.t -> string list
(** The scaling sweep's sanity rules on a BENCH_registry.json document:
    the sweep is non-empty and holds exactly [sizes]; every row has
    members = n, 100 to 2000 bytes per member, answers identical to the
    tree's, and positive insert and query throughput.  One message per
    broken rule; [[]] when all hold. *)

val obs : Regression.table
(** BENCH_obs.json: per-backend insert/query p99 relative to tree (1.5 —
    tails are noisy), exemplar presence and introspection counts (exact);
    the sketch's bound bit (exact) and max relative error (0.5); the
    fleet's completion rate (0.02), merged p99 (0.15), bound bit (exact)
    and shard skew (0.5). *)

val all : (string * Regression.table) list
(** Every gated BENCH file with its table, in [bench regress] order. *)
