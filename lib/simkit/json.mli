(** The one JSON value type, with its printer and an RFC 8259 reader,
    dependency-free.

    Every document the tree emits — BENCH_*.json, [--json-out],
    [--metrics-out], span and flight-recorder JSONL, timeseries and SLO
    status — is built as a {!t} and rendered by {!to_string}.  The reader
    parses them back for the bench regression gate and trace analysis.
    All numbers parse to floats; objects keep field order. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** Printed exactly; the reader yields [Number] for every number. *)
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** {1 Printing} *)

val to_string : t -> string
(** One line, [{"k": v, "k2": v2}] / [[a, b]].  Strings escape the
    double quote, backslash, newline, carriage return and tab by name and
    other control characters as [\u00XX].  Numbers: nan and infinities print as [null]
    (the document always parses), [Int]s and integral numbers below 1e15
    without a fraction, anything else to 9 significant digits ([%.9g]). *)

val option : ('a -> t) -> 'a option -> t
(** [None] is [Null]. *)

(** {1 Reading} *)

val parse : string -> (t, string) result
(** Exactly the RFC 8259 grammar: leading zeros, a bare trailing or
    leading decimal point and non-hex [\u] escapes are errors.  Errors
    carry the byte offset of the failure. *)

val parse_exn : string -> t
(** @raise Invalid_argument on malformed input. *)

val of_file : string -> (t, string) result
(** Read and parse a whole file; I/O errors become [Error]. *)

val member : string -> t -> t option
(** Field lookup on an object; [None] on missing field or non-object. *)

val path : string list -> t -> t option
(** Chained {!member}: [path ["a"; "b"] v] is [v.a.b]. *)

val as_float : t -> float option
(** [Number] and [Int] alike. *)

val as_bool : t -> bool option
val as_string : t -> string option
val as_list : t -> t list option

val keys : t -> string list
(** Field names of an object in document order; [[]] otherwise. *)
