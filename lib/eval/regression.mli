(** Bench regression gate: BENCH_*.json vs committed baselines, judged by
    declared gate tables.

    Each BENCH document's table sits next to its emitter
    ({!Load_exp.gate}, {!Wire_exp.gate}, {!Health_exp.gate},
    {!Resilience_exp.gate}; the registry and obs tables in {!Bench_gates}).
    A table expands against a document into {!row}s: gated rows compare
    the current document's number with the baseline's — timing normalized
    to the tree backend measured in the same run, deterministic
    simulated-time numbers near-exact, booleans exact — and invariant rows
    must hold on the current document alone.  A gated metric present in
    the baseline but missing from the current document fails.  Driven by
    [bench/main.exe -- regress]; wired as a CI job. *)

type direction =
  | Higher_better  (** Fails when current < baseline × (1 − tolerance). *)
  | Lower_better  (** Fails when current > baseline × (1 + tolerance). *)
  | Exact
  | Invariant  (** Checked on the current document only: must read 1. *)

type row = {
  name : string;
  value : Simkit.Json.t -> float;
      (** Reads the metric from a whole document.
          @raise Failure when the document lacks it. *)
  direction : direction;
  tolerance : float;  (** Allowed fractional drift in the bad direction. *)
}

type table = Simkit.Json.t -> row list
(** Expands against a document: per-element rows are named after the
    elements that document holds. *)

type comparison = {
  name : string;
  baseline : float option;  (** [None] for an invariant row. *)
  current : float option;  (** [None]: the metric disappeared — a failure. *)
  ok : bool;
}

(** {1 Declaring tables} *)

val row : ?tolerance:float -> direction -> string -> (Simkit.Json.t -> float) -> row
(** Tolerance defaults to 0. *)

val rows : row list -> table
(** A fixed set of rows. *)

val concat : table list -> table

val num : string list -> Simkit.Json.t -> float
(** The number at a path.  @raise Failure when absent or not a number. *)

val flag : string list -> Simkit.Json.t -> float
(** The bool at a path as 1 / 0.  @raise Failure when absent. *)

val bit : bool -> float
(** [true] is 1, [false] 0: derived structural bits. *)

val elements : string list -> Simkit.Json.t -> Simkit.Json.t list
(** The array at a path; [[]] when absent. *)

val fields : string list -> Simkit.Json.t -> string
(** The named fields of an array element, ["/"]-joined (strings as is,
    integral numbers without a fraction): an element's identity. *)

val element : string list -> key:(Simkit.Json.t -> string) -> string -> Simkit.Json.t -> Simkit.Json.t
(** [element array ~key id doc] is the element of [array] whose [key]
    is [id].  @raise Failure when there is none. *)

val each :
  ?where:(Simkit.Json.t -> bool) ->
  string list ->
  key:(Simkit.Json.t -> string) ->
  (Simkit.Json.t -> (Simkit.Json.t -> Simkit.Json.t) -> row list) ->
  table
(** [each array ~key build]: one group of rows per element of [array]
    that satisfies [where].  [build el this] gets the element as it
    appears in the expanded document, and [this], the lookup of the
    element with the same [key] in the document a row reads.  An absent
    array expands to no rows. *)

(** {1 Judging} *)

val gated : table -> Simkit.Json.t -> row list
(** The table's non-invariant rows, expanded against a document. *)

val check_invariants : table -> Simkit.Json.t -> comparison list
(** One comparison per invariant row of the current document. *)

val compare_docs : table -> baseline:Simkit.Json.t -> current:Simkit.Json.t -> comparison list
(** One comparison per gated row of the baseline (thresholds from the
    table), then {!check_invariants} on the current document. *)

val failures : comparison list -> comparison list
val print : comparison list -> unit
