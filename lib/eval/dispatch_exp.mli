(** The dispatch micro-benchmark behind the ["dispatch"] object of
    BENCH_wire.json: what one {!Simkit.Engine} event costs the
    implementation.

    A fixed schedule: 1000 events are queued, and each firing
    reschedules the one shared closure with the next delay of a fixed
    table until 200k have fired.  Two delay tables run in the same
    process: {e distinct} times (uniform in [0, 1000) ms) and a {e tie}
    schedule whose delays are whole milliseconds in 1..10, so about
    100 events share each timestamp.  Allocation counts do not
    depend on the machine; the tie timing is reported relative to the
    distinct timing of the same run. *)

type result = {
  pending : int;
  events : int;
  words_per_event : float;
      (** Words allocated per fired event on the distinct schedule: minor
          plus direct-to-major allocation. *)
  distinct_ns_per_event : float;  (** Best of three. *)
  tie_ns_per_event : float;  (** Best of three. *)
  tie_ns_rel_distinct : float;  (** [tie_ns_per_event / distinct_ns_per_event]. *)
}

val words_per_event : pending:int -> events:int -> float
(** Words allocated per event by a run of the distinct schedule with
    [pending] queued events and [events] firings.
    @raise Invalid_argument unless [0 < pending <= events]. *)

val run : unit -> result
(** The fixed schedule: 1000 pending, 200k events per run. *)

val result_json : result -> Simkit.Json.t

val gate : Regression.table
(** [engine/words_per_event] ([Lower_better], 0.1 — an allocation count)
    and [engine/tie_ns_rel_distinct] ([Lower_better], 1.0 — a same-run
    timing ratio that a re-push of equal-time batches multiplies by tens). *)

val print : result -> unit
