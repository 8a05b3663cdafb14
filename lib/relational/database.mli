(** A catalog of named relations. *)

type t

val empty : t
val add : Relation.t -> t -> t
(** Registers the relation under {!Relation.name}; replaces silently. *)

val of_relations : Relation.t list -> t
val find : t -> string -> Relation.t option
val find_exn : t -> string -> Relation.t
val names : t -> string list
val pp : Format.formatter -> t -> unit
