(** Metric serialization: JSON snapshots and Prometheus text exposition.

    A metrics document is a list of named sections, each backed by a
    {!Trace.t} — e.g. [("server", server_trace); ("registry", timing_trace)].
    Counters export as integers / Prometheus counters; observe streams
    export their full {!Trace.summary} (count, mean, stddev, ci95, min/max,
    p50/p90/p99, power-of-two histogram) / Prometheus summaries.  Empty
    streams serialize with [null] min/max/quantiles — serialization never
    raises.

    Streams whose samples were tagged with trace ids
    ({!Trace.observe}[ ~trace_id]) additionally export their tail
    exemplars: in JSON as an ["exemplars"] array per stream (bucket,
    trace_id, value), in Prometheus as a [<stream>_hist] log2 histogram
    whose bucket lines carry OpenMetrics-style
    [# {trace_id="…"} value] exemplar suffixes. *)

type meta = {
  git_rev : string;  (** ["unknown"] outside a git checkout. *)
  date_utc : string;  (** ISO-8601, e.g. ["2026-08-07T12:00:00Z"]. *)
  seed : int option;
  backends : string list;
  ocaml_version : string;  (** [Sys.ocaml_version]. *)
  word_size : int;  (** [Sys.word_size] — 63-bit ints vs 31-bit change counters. *)
  domains : int;  (** [Domain.recommended_domain_count ()] on the host. *)
  extra : (string * string) list;
}

val capture_meta : ?seed:int -> ?backends:string list -> ?extra:(string * string) list -> unit -> meta
(** Stamp a run: best-effort [git rev-parse --short HEAD], the UTC clock,
    and the toolchain/host shape (OCaml version, word size, recommended
    domain count), so artifact trajectories (BENCH_*.json) are comparable
    across commits, toolchains and machines. *)

val meta_json : meta -> Json.t
(** The metadata as one JSON object. *)

val bench_json :
  ?seed:int -> ?backends:string list -> ?params:(string * string) list ->
  (string * Json.t) list -> string
(** One BENCH_*.json document rendered by {!Json.to_string}:
    [{"meta": {...}, <fields>...}].  The shared stamping path for every
    bench emitter — [meta] always carries exactly the keys [git_rev],
    [date_utc], [seed], [backends], [ocaml_version], [word_size],
    [domains] and [params] (the bench-specific knobs as one object), so
    all emitted bench files have identical meta key sets. *)

val write_bench :
  path:string -> ?seed:int -> ?backends:string list -> ?params:(string * string) list ->
  (string * Json.t) list -> unit
(** {!bench_json} straight to [path]. *)

val labeled_json : Metrics.t -> Json.t
(** One labeled registry as nested JSON: a ["series"] array whose entries
    carry the parsed identity ([name], [labels] object, [kind] ∈
    counter/stream/gauge) next to the rendered value — no consumer ever
    re-parses canonical [name{k="v"}] keys — plus ["overflow_routed"]. *)

val metrics_json :
  ?meta:meta ->
  ?timeseries:(string * Timeseries.t) list ->
  ?labeled:(string * Metrics.t) list ->
  ?runtime:Runtime_profile.t ->
  (string * Trace.t) list ->
  string
(** A complete JSON document (one line, newline-terminated): optional
    ["meta"] plus ["sections"], one
    entry per named trace with its counters and stat summaries.  When
    [labeled] is non-empty the document gains a ["labeled"] key (one
    {!labeled_json} per named registry); [runtime] adds a ["runtime"]
    key ({!Runtime_profile.to_json}: per-phase GC deltas, domain-pool
    utilization, observe-path overhead).  When [timeseries] is non-empty
    the document gains a top-level ["timeseries"] key with each named
    {!Timeseries.to_json} (windowed quality/latency streams alongside the
    whole-run aggregates). *)

val prometheus : ?prefix:string -> (string * Trace.t) list -> string
(** Prometheus text exposition: [<prefix>_<section>_<counter>_total]
    counters and [<prefix>_<section>_<stream>] summaries with
    quantile labels.  Default prefix ["nearby"].  Every name component —
    prefix included — is sanitized to the exposition grammar
    ([[a-zA-Z0-9_]], no leading digit). *)

val prometheus_labeled : ?prefix:string -> (string * Metrics.t) list -> string
(** Labeled registries in the same exposition:
    [<prefix>_<section>_<name>{k="v",…}] lines — counters with a [_total]
    suffix (not doubled when the name already ends in [_total]), streams
    as summaries (the [quantile] label appended after the series labels),
    gauges as gauges.  Label keys are sanitized like
    metric names; values are backslash-escaped. *)

val write_file : string -> string -> unit
(** [write_file path contents]. *)
