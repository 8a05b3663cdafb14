(** Bell numbers: [bell n] is the number of partitions of an [n]-set,
    i.e. the size of the partition lattice [Π_n].  Used for exact
    version-space counting: the number of partitions refining a given
    partition is the product of the Bell numbers of its block sizes. *)

val max_exact : int
(** Largest [n] for which [bell n] fits in a native [int] (= 24 on
    64-bit). *)

val bell : int -> int
(** Raises [Invalid_argument] if [n < 0] or [n > max_exact]. *)

val bell_float : int -> float
(** Bell number as a float (exact up to [max_exact], then computed in
    floating point via the triangle; usable as a magnitude for entropy
    computations).  Supported up to [n = 218] (beyond which the value
    overflows to [infinity], which is returned). *)

val count_refinements : int list -> float
(** [count_refinements sizes] is the number of partitions refining a
    partition with blocks of the given sizes: [∏ bell_float size]. *)
