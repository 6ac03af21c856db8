(** Discrete-event simulation engine (the PeerSim replacement's heart).

    Events are closures scheduled at absolute simulated times (milliseconds,
    [float]).  Each event is keyed on [(time, seq)], where [seq] counts
    [schedule] calls on this engine; the engine always fires the least key,
    so equal-time events fire in schedule (FIFO) order, including events
    scheduled at the current time from inside a body.  That makes whole runs
    deterministic given deterministic event bodies.

    A NaN time or delay is rejected; [infinity] is a legal time (an event
    that fires only once everything finite has). *)

type t

val create : unit -> t
(** A fresh engine at time 0. *)

val now : t -> float
(** Current simulated time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument on a negative or NaN delay. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; @raise Invalid_argument when [time] is in the
    past or NaN. *)

val run : ?until:float -> t -> unit
(** Drain the event queue in time order.  With [until], stops once the next
    event would fire strictly after that time (the clock then reads
    [until]). *)

val step : t -> bool
(** Execute exactly the next event; [false] when the queue was empty. *)

val pending : t -> int
(** Events still queued. *)

val processed : t -> int
(** Events executed so far. *)
