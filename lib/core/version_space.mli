(** The version space: the set of predicates consistent with a
    {!State.t}, i.e. [↓s] minus the ideals of the stored negatives.

    Counting is exact (inclusion–exclusion over the negative antichain,
    in floating point); enumeration is exhaustive and only for small
    attribute counts (brute-force oracles in tests, the optimal
    strategy). *)

val count : State.t -> float
(** Number of consistent predicates; [0.] exactly on contradiction,
    [>= 1.] otherwise ([s] itself is always consistent). *)

val is_singleton_on : State.t -> Sigclass.cls array -> bool
(** Have the labels pinned the goal down {e on this instance} — is there
    no informative class left?  (This is JIM's termination test: unique
    up to instance-equivalence, not unique in the lattice.) *)

val enumerate : State.t -> Jim_partition.Partition.t list
(** All consistent predicates, by filtering [↓s].  Raises
    [Invalid_argument] when the ideal is unreasonably large (guard:
    [count > 1e6]). *)

val mem : State.t -> Jim_partition.Partition.t -> bool
(** Alias of {!State.consistent}. *)

val equivalence_classes :
  State.t -> Sigclass.cls array -> (bool array * Jim_partition.Partition.t list) list
(** Partition the consistent predicates by the subset of signature classes
    they select (instance-equivalence).  Enumerative — small states only.
    Each element is (selection bitmap over classes, predicates). *)
