(** Runtime profiling: GC deltas per phase, domain-pool utilization, and
    the profiler's own overhead.

    Latency streams say {e how long} an operation took; this module says
    {e what the runtime was doing} — allocation pressure, collection
    counts, heap growth per named phase, how busy the worker domains
    were — so a tail regression can be attributed to GC or scheduling
    rather than guessed at.  Readings come from [Gc.quick_stat] (no heap
    census, cheap enough to bracket every phase) and
    {!Prelude.Domain_pool.utilization}. *)

type gc_delta = {
  minor_words : float;  (** words allocated in the minor heap *)
  major_words : float;  (** words allocated in (or promoted to) the major heap *)
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;  (** top-heap words at the end of the last run *)
}

type phase = {
  name : string;
  runs : int;  (** times the phase was entered *)
  wall_ns : float;  (** accumulated across runs *)
  gc : gc_delta;  (** accumulated across runs *)
}

type t

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] returns nanoseconds (monotonicity is the caller's problem);
    defaults to wall time. *)

val phase : t -> string -> (unit -> 'a) -> 'a
(** [phase t name f] runs [f], accumulating its wall time and GC deltas
    under [name].  Re-entering a name accumulates (runs increments).
    Exceptions propagate; the partial run is still recorded. *)

val note_pool : t -> Prelude.Domain_pool.t -> unit
(** Snapshot the pool's {!Prelude.Domain_pool.utilization} into the
    profile (replacing any previous snapshot). *)

val set_pool : t -> Prelude.Domain_pool.utilization -> unit
(** Store an already-taken utilization snapshot. *)

val pool : t -> Prelude.Domain_pool.utilization option

val overhead_ns : t -> float
(** Time spent inside the profiling brackets themselves (clock and
    [Gc.quick_stat] reads) — the observe path's self-cost, kept separate
    so phase wall times stay honest. *)

val phases : t -> phase list
(** In first-entered order. *)

val find : t -> string -> phase option

val to_json : t -> Json.t
(** [{"phases": {name: {runs, wall_ns, gc: {...}}, …}, "overhead_ns": …,
    "domain_pool": {…}?}] — the [runtime] section of
    {!Export.metrics_json}. *)
