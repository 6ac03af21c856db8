(** The experiment index of DESIGN.md as one table: Fig. 2, the paper's
    extensions E1-E5 and the follow-on experiments.  [nearby_sim] builds
    one subcommand per entry and its [all] command runs the table in
    order; [bench/main.exe] runs each entry as a section of the same
    name.  Adding an experiment means adding one entry to {!all}. *)

(** A size override an entry accepts on the command line. *)
type size_flag =
  | Routers  (** [--routers]: the router-map size. *)
  | Peers  (** [--peers]: the peer population. *)
  | K  (** [--k]: neighbors requested per peer. *)

(** The overrides given; [None] keeps the configuration's value. *)
type size = { routers : int option; peers : int option; k : int option }

val no_size : size
(** Every field [None]. *)

type t = {
  name : string;  (** The nearby_sim subcommand and the bench section. *)
  title : string;  (** The section banner and the subcommand's [--help] doc. *)
  size_flags : size_flag list;
      (** The size overrides the subcommand declares; fields of {!size}
          outside this list are ignored. *)
  run : quick:bool -> seed:int option -> size -> unit;
      (** Run on the quick or the paper-scale configuration, with the
          base seed replaced when [seed] is given, and print the tables. *)
}

val all : t list
(** Every experiment, in the order [nearby_sim all] and bench run them. *)

val banner : string -> unit
(** Print a section header; the front ends print [title] before each
    entry they run in sequence. *)
