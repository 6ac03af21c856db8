(** A bounded ring of recent notable events, dumpable as JSONL.

    The flight recorder answers "what was happening just before this?": it
    cheaply retains the last [capacity] RPC outcomes, cluster membership
    changes, injected faults and SLO transitions, and is dumped when an
    {!Slo} breach fires (or on demand via [--flight-out]).  Recording is
    O(1) — old events are silently overwritten — so a recorder can stay
    attached to a large simulation at all times.

    Instrumented producers accept a [?recorder] at construction:
    {!Rpc.create}, [Nearby.Cluster.create] and {!Fault.install}. *)

type event = {
  ts : float;  (** Producer's clock (simulated ms). *)
  kind : string;  (** Coarse family: ["rpc"], ["cluster"], ["fault"], ["slo"], ... *)
  detail : string;
  args : (string * Span.value) list;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 512 events.
    @raise Invalid_argument when [capacity < 1]. *)

val capacity : t -> int

val record : t -> ts:float -> kind:string -> ?args:(string * Span.value) list -> string -> unit
(** Append one event, overwriting the oldest once full. *)

val count : t -> int
(** Events currently retained. *)

val total_recorded : t -> int
(** Events ever recorded, including overwritten ones. *)

val events : t -> event list
(** Retained events, oldest first. *)

val clear : t -> unit

val event_json : event -> Json.t
val to_jsonl : t -> string
(** One JSON object per line, oldest first. *)
