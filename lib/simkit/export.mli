(** Metric serialization: JSON snapshots and Prometheus text exposition.

    A metrics document is a list of named sections, each one {!Metrics.t}
    store — e.g. [("server", server_trace); ("fleet", labeled)].  Counters
    export as integers / Prometheus counters; streams export their full
    {!Metrics.summary} (count, mean, stddev, ci95, min/max, p50/p90/p99,
    power-of-two histogram) / Prometheus summaries; gauges as gauges.
    Empty streams serialize with [null] min/max/quantiles — serialization
    never raises.

    Streams whose samples were tagged with trace ids
    ({!Metrics.observe_traced}) additionally export their tail
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
(** One store as nested JSON: a ["series"] array whose entries
    carry the parsed identity ([name], [labels] object, [kind] ∈
    counter/stream/gauge) next to the rendered value — no consumer ever
    re-parses canonical [name{k="v"}] keys — plus ["overflow_routed"]. *)

val metrics_json :
  ?meta:meta ->
  ?timeseries:(string * Timeseries.t) list ->
  ?labeled:(string * Metrics.t) list ->
  ?runtime:Runtime_profile.t ->
  (string * Metrics.t) list ->
  string
(** A complete JSON document (one line, newline-terminated): optional
    ["meta"] plus ["sections"], one entry per named store with its
    counters and stat summaries by canonical key.  When
    [labeled] is non-empty the document gains a ["labeled"] key (one
    {!labeled_json} per named registry); [runtime] adds a ["runtime"]
    key ({!Runtime_profile.to_json}: per-phase GC deltas, domain-pool
    utilization, observe-path overhead).  When [timeseries] is non-empty
    the document gains a top-level ["timeseries"] key with each named
    {!Timeseries.to_json} (windowed quality/latency streams alongside the
    whole-run aggregates). *)

val prometheus : ?prefix:string -> (string * Metrics.t) list -> string
(** Prometheus text exposition, one [<prefix>_<section>_<name>] family per
    base name: series labels render as [{k="v",…}] (none for a flat
    series); counters carry a [_total] suffix (not doubled when the name
    already ends in [_total]); streams are summaries (the [quantile] label
    appended after the series labels), plus a [<name>_hist] log2
    histogram with exemplars when the stream has tagged samples; gauges
    are gauges.  Default prefix ["nearby"].  Every name component and
    label key is sanitized to the exposition grammar ([[a-zA-Z0-9_]], no
    leading digit); label values are backslash-escaped. *)

val write_file : string -> string -> unit
(** [write_file path contents]. *)
