(** Timing middleware over any {!Registry_intf.S} backend.

    Wraps a packed backend module so [insert], [remove], [query] and
    [query_member] are individually timed and each sample is written once
    into one {!Simkit.Metrics} store under uniform flat stream names,
    identical for every backend:

    - ["registry_insert_ns"], ["registry_remove_ns"], ["registry_query_ns"]
      — per-operation wall time, nanoseconds;
    - ["registry_query_candidates"] — candidates returned per query.

    The store gives each stream p50/p90/p99 alongside mean/CI, so
    every backend gets tail-latency metrics for free; answers, stats,
    introspection and snapshots pass through untouched.

    With a span sink, each operation additionally emits one span
    (["registry_insert"] / ["registry_remove"] / ["registry_query"])
    parented under the ambient context ({!Simkit.Span.current}), and the
    timed sample is recorded with that context's trace id — the stream's
    tail exemplars then point back at the traces that caused them. *)

val insert_ns : string
val remove_ns : string
val query_ns : string
val query_candidates : string
(** The stream names above, as values (exporters and benches reference
    them rather than retyping the literals). *)

val make :
  ?clock:(unit -> float) ->
  ?spans:Simkit.Span.sink ->
  ?metrics:Simkit.Metrics.t ->
  (module Registry_intf.S) ->
  (module Registry_intf.S)
(** [make ~metrics b] is [b] with timed hot paths, each sample written
    once into [metrics] through a stream handle resolved on first use.
    [clock] (default {!Prelude.Clock.now_ns}, nanoseconds) is injectable
    for deterministic tests; [spans] (default {!Simkit.Span.noop})
    receives one per-operation span parented on the ambient context.
    Without [metrics] only the spans are recorded. *)

val wrap :
  ?clock:(unit -> float) ->
  ?metrics:Simkit.Metrics.t ->
  ?spans:Simkit.Span.sink ->
  (module Registry_intf.S) ->
  (module Registry_intf.S)
(** [wrap ?metrics ?spans b] is [make] when a metrics store or a span
    sink is given and {e physically} [b] itself when neither is —
    instrumentation compiles down to direct backend calls when
    disabled. *)
