(** Signature classes: the instance grouped by tuple signature.

    Two tuples with the same signature are indistinguishable to every
    equi-join predicate, so the inference engine works on signature
    classes weighted by multiplicity instead of raw rows.  The number of
    classes is bounded by [Bell arity] and in practice tiny compared to
    the instance. *)

type cls = {
  sg : Jim_partition.Partition.t;  (** the shared signature *)
  bits : Jim_partition.Pairs.t;
      (** [sg] as pair words, computed once with the class: what the
          engine classifies on *)
  rows : int list;                 (** row numbers in the source relation, ascending *)
  card : int;                      (** [List.length rows] *)
}

val classes : Jim_relational.Relation.t -> cls array * int array
(** Classes ordered by first occurrence in the relation, and the row →
    class map: entry [i] is the index of row [i]'s class. *)

val of_signatures : Jim_partition.Partition.t list -> cls array
(** Build classes from bare signatures (row [i] is signature [i] of the
    list); convenient for synthetic workloads and tests. *)

val singletons : Jim_relational.Relation.t -> cls array
(** One class per row, {e without} merging equal signatures — the
    ungrouped baseline the grouping ablation bench compares against.
    Semantically interchangeable with {!classes} (the engine may just
    ask about duplicate signatures it could have pruned). *)

val representative : cls -> int
(** Smallest row number of the class. *)

val total_rows : cls array -> int

val find : cls array -> Jim_partition.Partition.t -> int option
(** Index of the class carrying the given signature. *)
