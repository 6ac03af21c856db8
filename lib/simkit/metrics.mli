(** The metric store: every counter, stream and gauge of a run.

    A series is a base name plus a label set, in the Prometheus data model
    — [registry_shard_query_ns{shard="3"}].  Label sets are canonicalized
    (sorted by key), so label order never splits a series, and the empty
    label set is the flat case: [incr t "join"] needs no labels at all.
    {!Trace} is this module under its older name.

    A {b counter} is an [int] cell.  A {b stream} keeps a Welford
    accumulator, one mergeable quantile sketch ({!Prelude.Sketch},
    relative error {!Prelude.Sketch.default_alpha}), a power-of-two
    histogram and per-bucket exemplars; every quantile read — {!summary},
    {!quantile}, the {!Export} serializations — comes from the sketch, on
    live and merged streams alike.  A {b gauge} holds the last value set.

    {b Handles.}  {!counter_ref}, {!stream} and {!gauge_ref} resolve a
    series once; writes through the handle do no label work and no
    lookup, and counter bumps and stream samples allocate nothing.  The
    keyed writers ({!incr}, {!observe}, …) resolve on every call and suit
    cold paths.  Handles stay valid across {!reset}.

    {b Cardinality bound.}  Per base name at most [max_series_per_name]
    label sets are stored; further ones collapse into the reserved
    {!overflow_labels} series, so a runaway label value degrades into one
    aggregate series instead of unbounded memory. *)

type t

type labels = (string * string) list
(** Label pairs.  Keys must be unique (checked); order is irrelevant. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  ci95 : float;  (** Half-width of the 95% CI of the mean. *)
  min : float option;  (** [None] when the stream is empty. *)
  max : float option;
  p50 : float;  (** {!quantile}[ 0.5]; [nan] when the stream is empty. *)
  p90 : float;
  p99 : float;
}

type exemplar = {
  bucket : int;  (** {!Prelude.Histogram.log2_bucket} of the sample. *)
  trace_id : int;
  value : float;
}

val create : ?max_series_per_name:int -> unit -> t
(** [max_series_per_name] defaults to 64; @raise Invalid_argument below 1. *)

val overflow_labels : labels
(** [{other="true"}]: the series absorbing label sets beyond the cap. *)

val canonical_key : string -> labels -> string
(** The flattened identity [name{k="v",…}] (labels sorted, values escaped
    as JSON strings), or [name] for the empty label set.  Built once per
    series, when it is registered.
    @raise Invalid_argument on duplicate label keys. *)

val of_counters : (string * int) list -> t
(** A fresh store holding the given flat counters — the adapter for
    subsystems that keep plain integers (e.g. {!Transport.stats}). *)

(** {1 Handles} *)

type stream

val counter_ref : ?labels:labels -> t -> string -> int ref
(** The live counter cell, registering the series on first use. *)

val gauge_ref : ?labels:labels -> t -> string -> float ref
(** The live gauge cell, registering the series on first use (it reads 0
    until set: resolve it where the first value is set). *)

val stream : ?labels:labels -> t -> string -> stream
(** The live stream, registering the series on first use. *)

val observe_stream : stream -> float -> unit

val observe_traced : stream -> trace_id:int -> float -> unit
(** {!observe_stream}, also keeping the sample as the latest {!exemplar}
    of its log2 bucket, so the stream's tail stays cross-linked to
    concrete traces (OpenMetrics-style).  Trace id 0 (the noop span
    sink's {!Span.null_context}) keeps no exemplar. *)

(** {1 Keyed writes} *)

val incr : ?labels:labels -> t -> string -> unit
val add_count : ?labels:labels -> t -> string -> int -> unit

val observe : ?trace_id:int -> ?labels:labels -> t -> string -> float -> unit
(** {!observe_traced}; no exemplar without [trace_id]. *)

val set : ?labels:labels -> t -> string -> float -> unit
(** Gauge write: last value wins. *)

(** {1 Reading}

    Readers never register a series. *)

val counter : ?labels:labels -> t -> string -> int
(** 0 when the series was never written. *)

val sum_counters : ?where:(labels -> bool) -> t -> string -> int
(** The sum of the counters under a base name whose labels satisfy
    [where] (default: all) — e.g. one message kind over every direction. *)

val gauge : ?labels:labels -> t -> string -> float option
val stat : ?labels:labels -> t -> string -> Prelude.Stats.t option
val summary : ?labels:labels -> t -> string -> summary option

val quantile : ?labels:labels -> t -> string -> float -> float option
(** Any [q] in [\[0, 1\]], from the sketch: within relative error
    {!Prelude.Sketch.default_alpha} of the exact order statistic of rank
    [floor (q * (count - 1))], merged or not.  [None] for an unknown
    stream, [nan] before the first sample.
    @raise Invalid_argument on [q] outside [\[0, 1\]]. *)

val hist : ?labels:labels -> t -> string -> Prelude.Histogram.t option
(** The stream's {!Prelude.Histogram.log2_bucket} histogram. *)

val exemplars : ?labels:labels -> t -> string -> exemplar list
(** The latest exemplar per populated log2 bucket, ascending by bucket. *)

val top_exemplar : ?labels:labels -> t -> string -> exemplar option
(** The exemplar of the highest bucket: the trace to open when the tail
    looks wrong. *)

val counters : t -> (string * int) list
(** Every counter as [(canonical key, value)], sorted by key. *)

val series : t -> (string * labels * string) list
(** Every series as [(name, labels, canonical key)], sorted by key. *)

type reading = {
  name : string;
  labels : labels;
  key : string;
  counter : int option;  (** [None]: no counter under this identity. *)
  stream : (summary * Prelude.Histogram.t * exemplar list) option;
  gauge : float option;
}

val readings : t -> reading list
(** Every series with its values, sorted by key: what {!Export} renders. *)

val series_count : t -> string -> int
(** Label sets stored under a base name (the overflow series counts). *)

val overflow_routed : t -> int
(** Resolutions rerouted to the overflow series: one per keyed write, one
    per handle resolution. *)

(** {1 Merging} *)

val merge_into : ?labels:labels -> into:t -> t -> unit
(** Fold every series of [src] into [into], re-resolving identities
    against [into]'s cap; [src] is unchanged.  Counters add (zeros are
    skipped); Welford accumulators, histograms and sketches combine
    losslessly (merged quantiles equal those of one stream fed the
    concatenated samples); exemplars and gauges take [src]'s values.
    [labels] are added to every series on the way in:
    [merge_into ~labels:["replica", "2"] ~into (Server.trace s)] files a
    replica's flat store under its index — the fleet roll-up primitive. *)

val reset : t -> unit
(** Zero every counter and empty every stream {e in place}; handles keep
    pointing at live cells.  Gauges keep their values. *)
