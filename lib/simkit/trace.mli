(** Simulation metrics collection.

    Named counters and named streaming statistics, written by protocol code
    and read by experiment reports.  Each observe stream is backed by a
    Welford accumulator, one mergeable quantile sketch ({!Prelude.Sketch},
    relative error {!Prelude.Sketch.default_alpha}), a power-of-two
    histogram and per-bucket exemplars, so tail latencies are available
    from bounded memory per stream.  Every quantile read — {!summary},
    {!quantile}, the {!Export} serializations — comes from the sketch, on
    live and merged streams alike, so one stream has one answer.  Purely
    in-memory; rendering is the caller's business (see {!Export} for the
    JSON / Prometheus serializations). *)

type t

type summary = {
  count : int;
  mean : float;
  stddev : float;
  ci95 : float;  (** Half-width of the 95% CI of the mean. *)
  min : float option;  (** [None] when the stream is empty. *)
  max : float option;
  p50 : float;
      (** {!quantile}[ 0.5]: the sketch estimate, within relative error
          {!Prelude.Sketch.default_alpha} of the exact order statistic;
          [nan] when the stream is empty. *)
  p90 : float;
  p99 : float;
}

val create : unit -> t
val incr : t -> string -> unit
val add_count : t -> string -> int -> unit
val counter : t -> string -> int
(** 0 when never written. *)

val of_counters : (string * int) list -> t
(** A fresh trace pre-loaded with the given counter values — the adapter
    for subsystems that keep plain integer counters (e.g.
    {!Transport.stats}) so the {!Export} serializers can see them. *)

val counter_ref : t -> string -> int ref
(** The live cell behind a counter, for hot paths that bump it in a loop.
    The ref stays valid across {!reset} (reset zeroes it in place). *)

val observe : ?trace_id:int -> t -> string -> float -> unit
(** Append a sample to the named statistic.  With [trace_id], also record
    the sample as the latest {!exemplar} of its log2 bucket, so the tail of
    the stream stays cross-linked to concrete traces (OpenMetrics-style).
    Trace id 0 (the noop span sink's {!Span.null_context}) is ignored. *)

type exemplar = {
  bucket : int;  (** {!Prelude.Histogram.log2_bucket} of the sample. *)
  trace_id : int;
  value : float;
}

val exemplars : t -> string -> exemplar list
(** One exemplar per populated log2 bucket (the latest to land there),
    ascending by bucket; [[]] for unknown streams or untagged samples. *)

val top_exemplar : t -> string -> exemplar option
(** The exemplar of the highest populated bucket — the trace to open when
    the stream's tail looks wrong. *)

val stat : t -> string -> Prelude.Stats.t option
val summary : t -> string -> summary option

val quantile : t -> string -> float -> float option
(** [quantile t name q] for any [q] in [\[0, 1\]], from the stream's
    sketch: within relative error {!Prelude.Sketch.default_alpha} of the
    exact order statistic of rank [floor (q * (count - 1))], whether or not
    the stream has absorbed a {!merge_into}.  [None] for an unknown stream,
    [nan] before the first observation.
    @raise Invalid_argument on [q] outside [\[0, 1\]]. *)

val hist : t -> string -> Prelude.Histogram.t option
(** Power-of-two histogram of the stream, bucketed by
    {!Prelude.Histogram.log2_bucket}: bucket 0 counts samples <= 1, bucket
    [b > 0] counts samples in (2^(b-1), 2^b].  Combine histograms across
    traces with {!Prelude.Histogram.merge_into}. *)

val counters : t -> (string * int) list
(** Alphabetical. *)

val stats : t -> (string * Prelude.Stats.t) list
(** Alphabetical. *)

val summaries : t -> (string * summary) list
(** Alphabetical. *)

val merge_into : ?map_name:(string -> string) -> into:t -> t -> unit
(** [merge_into ~into src] folds every counter and stream of [src] into
    [into], leaving [src] unchanged: counters add, Welford accumulators,
    log2 histograms and quantile sketches combine losslessly (a merged
    stream's quantiles equal those of one stream fed the concatenated
    samples, bit for bit), and exemplars keep [src]'s latest per bucket.
    [map_name] renames each counter/stream on the way in — the hook
    {!Metrics.merge_trace} uses to file a whole trace under a label set.
    This is the fleet roll-up primitive: scrape each replica's trace into
    one fresh trace and read merged tails off it. *)

val reset : t -> unit
(** Zero every counter and stream {e in place}: handles previously obtained
    through {!counter_ref} or {!stat} keep pointing at live cells. *)
