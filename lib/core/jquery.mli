(** Join queries: an inferred predicate made presentable — equality atoms
    over named attributes, SQL text, and evaluation over the instance.

    The paper's §1 points out that JIM's inferred joins "can be eventually
    seen as simple GAV mappings"; {!to_gav} prints that reading. *)

type t = {
  pred : Jim_partition.Partition.t;
  schema : Jim_relational.Schema.t;  (** attribute names for the predicate's positions *)
}

val make : Jim_relational.Schema.t -> Jim_partition.Partition.t -> t
(** Raises [Invalid_argument] if sizes disagree. *)

val atoms : t -> (string * string) list
(** Spanning equality atoms (representative = member), by block. *)

val to_where : t -> string
(** ["t.To = h.City AND t.Airline = h.Discount"]; ["TRUE"] for the empty
    predicate. *)

val to_sql : from:string list -> t -> string
(** A complete [SELECT * FROM ... WHERE ...] statement.

    Each atom is SQL's [=], which never holds on [Null], while the
    predicate JIM infers (and {!eval}) equates [Null] with [Null]: on an
    instance with [Null]s the statement selects fewer rows than {!eval},
    exactly the rows where some equated pair is [Null]-[Null].  The
    statement is exact on [Null]-free instances. *)

val to_gav : head:string -> t -> string
(** GAV-mapping reading: ["m(...) :- r1(...), r2(...), x = y, ..."]. *)

val eval : t -> Jim_relational.Relation.t -> Jim_relational.Relation.t
(** Rows of the (denormalised) instance selected by the predicate. *)

val selects : t -> Jim_relational.Tuple0.t -> bool

val equivalent_on : t -> t -> Jim_relational.Relation.t -> bool
(** Instance-equivalence: do the two predicates select the same rows? *)

val pp : Format.formatter -> t -> unit
