(** Derived lattice utilities over {!Partition.t}: n-ary meets/joins and
    cardinalities of ideals and of ideal differences — the quantities JIM's
    version space is made of. *)

val meet_all : int -> Partition.t list -> Partition.t
(** Meet of a list; the empty meet is {!Partition.top} [n] (the neutral
    element for meet, matching the "no positive examples yet" state). *)

val join_all : int -> Partition.t list -> Partition.t
(** Join of a list; the empty join is {!Partition.bottom} [n]. *)

val down_minus_count : top:Partition.t -> excluded:Partition.t list -> float
(** [|↓top \ (↓e₁ ∪ … ∪ ↓eₖ)|] by inclusion–exclusion over the excluded
    tops.  Exact (in float) for up to {!max_exclusions} exclusions after
    redundancy elimination; beyond that, falls back to the Bonferroni
    truncation at depth 2, which is a lower bound reported as an estimate.
    This is the exact size of JIM's version space: [top] is the meet of the
    positive signatures, the exclusions the (meets with the) negative
    signatures. *)

val max_exclusions : int

val maximal_elements : Partition.t list -> Partition.t list
(** Antichain of ⊑-maximal elements (duplicates removed). *)

val minimal_elements : Partition.t list -> Partition.t list
