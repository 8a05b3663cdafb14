(** Exhaustive enumeration over regions of the partition lattice.

    Only intended for small sizes (tests, the exponential optimal strategy,
    brute-force version-space oracles): the full lattice has [Bell n]
    elements. *)

val iter_all : int -> (Partition.t -> unit) -> unit
(** Iterate over every partition of [{0..n-1}], in restricted-growth-string
    order (which starts at {!Partition.bottom}... more precisely at the
    all-zero RGS, i.e. {!Partition.top}, and ends at {!Partition.bottom}). *)

val all : int -> Partition.t list
(** All partitions of size [n].  Raises [Invalid_argument] when
    [n > Bell.max_exact] would not even fit memory ([n > 12]). *)

val iter_below : Partition.t -> (Partition.t -> unit) -> unit
(** Iterate over every partition refining the argument (the order ideal
    [↓p]), including [p] itself and {!Partition.bottom}. *)

val below : Partition.t -> Partition.t list

val count_below : Partition.t -> float
(** [= Bell.count_refinements (block_sizes p)]; exact while representable. *)

val iter_between : Partition.t -> Partition.t -> (Partition.t -> unit) -> unit
(** [iter_between lo hi f] iterates over partitions [q] with
    [lo ⊑ q ⊑ hi] (the interval, isomorphic to a product of partition
    lattices over [hi]'s blocks viewed as sets of [lo]-blocks). *)
