(** Typed atomic values stored in relations.

    JIM's inference only ever tests values for equality, so the value
    domain is deliberately simple; the total order below is what sorting
    tuples and grouping rows into signature classes use. *)

type ty = Tint | Tfloat | Tstring | Tbool | Tdate

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Date of { y : int; m : int; d : int }

val type_of : t -> ty option
(** [None] for [Null]. *)

val ty_name : ty -> string

val equal : t -> t -> bool
(** SQL-flavoured: [Null] is not equal to anything, including itself. *)

val identical : t -> t -> bool
(** Structural equality, with [identical Null Null = true].  This is the
    equality used to build tuple signatures. *)

val compare : t -> t -> int
(** Total order: [Null] first, then by type ([ty] declaration order), then
    by value. *)

val hash : t -> int

val is_null : t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val parse : ty -> string -> (t, string) result
(** Parse a literal of the given type; the empty string parses to [Null]. *)

val parse_auto : string -> t
(** Best-effort: int, then float, then bool, then date (YYYY-MM-DD), then
    string; empty string is [Null]. *)

val date : int -> int -> int -> t
(** Raises [Invalid_argument] on an impossible calendar date. *)
