(** Most-general consistent predicates.

    The canonical answer [s] is the most {e specific} consistent
    predicate; the other end of the version space — its ⊑-minimal
    elements — is what a user reading the output as SQL usually wants
    (fewest equality atoms).  A consistent [θ ⊑ s] must, for every stored
    negative [u], demand at least one equality from [pairs s \ pairs u];
    minimal consistent predicates are therefore generated by the minimal
    hitting sets of those difference sets, closed transitively. *)

val most_general : State.t -> Jim_partition.Partition.t list
(** The ⊑-minimal consistent predicates (the antichain at the bottom of
    the version space); [[Partition.bottom n]] when there are no
    negatives.  Worst-case exponential in the number of negatives, fine
    for interactive-scale states.  Empty on a contradictory state. *)
