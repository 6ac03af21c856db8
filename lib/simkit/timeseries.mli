(** Fixed-width windowed metric aggregation on an explicit clock.

    Where {!Trace} accumulates whole-run statistics, a timeseries answers
    "what did this stream look like {e per window}": each named series
    chops the caller-supplied clock (engine time, usually) into windows of
    [window_ms] and keeps count / rate / mean / p50 / p90 / p99 per
    window, in a bounded ring of the most recent [capacity] windows.  This
    is the substrate {!Slo} burn rates are evaluated over.

    Windows are half-open: a sample at exactly [k * window_ms] lands in
    window [k].  Only windows that received samples are materialized;
    absent windows read back as [None] and serialize as [null].  No wall
    clock is ever read — determinism is the caller's to keep. *)

type t

type series
(** A cached per-name handle, for hot paths; stays valid across {!reset}
    (which empties the ring in place). *)

type summary = {
  index : int;  (** Window number: [floor (now / window_ms)]. *)
  from_ms : float;  (** Window start on the caller's clock. *)
  count : int;
  rate_per_s : float;  (** [count] scaled to events per second. *)
  mean : float;
  p50 : float;  (** P² estimates; [nan] on a window with no samples (never
                    serialized — absent windows are [None]). *)
  p90 : float;
  p99 : float;
}

val create : ?capacity:int -> window_ms:float -> unit -> t
(** [capacity] bounds the ring per series (default 64 windows).
    @raise Invalid_argument on a non-positive width or capacity. *)

val window_ms : t -> float
val capacity : t -> int

val series : t -> string -> series
(** The live handle behind a named series (created empty on first use). *)

val observe : t -> string -> now:float -> float -> unit
(** [observe t name ~now v] adds [v] to [name]'s window at time [now].
    Negative [now] clamps into window 0. *)

val observe_series : t -> series -> now:float -> float -> unit
(** {!observe} through a cached handle. *)

val windows : t -> string -> summary option list
(** The retained windows oldest-first, ending at the newest written window;
    [None] marks an in-range window that saw no samples.  [[]] for an
    unknown or empty series. *)

val latest_index : t -> string -> int option
(** Highest window index written so far. *)

val names : t -> string list
(** Alphabetical. *)

val reset : t -> unit
(** Empty every series {e in place}: handles from {!series} stay live,
    mirroring {!Trace.reset}'s [counter_ref] guarantee. *)

val summary_json : summary -> Json.t

val to_json : t -> Json.t
(** [{"window_ms": ..., "series": {"<name>": {"from_window": i, "windows":
    [null | {...}, ...]}}}] — absent windows are [null]. *)
