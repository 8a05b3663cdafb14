(** Canonical partitions of [{0 .. n-1}], ordered by refinement.

    A partition represents an equi-join predicate over the attributes of a
    (denormalised) relation: attributes in the same block are required to be
    pairwise equal.  The set of all partitions of [n] attributes forms the
    partition lattice [Π_n]; the refinement order [p ⊑ q] ("[p] refines
    [q]", [p] is finer) holds when every block of [p] is contained in a
    block of [q], i.e. the equalities demanded by [p] are a subset of those
    demanded by [q].

    Orientation used throughout JIM:
    - {!bottom} (all singletons) is the {e empty} predicate — most general,
      selects every tuple;
    - {!top} (one block) demands all attributes equal — most specific;
    - a tuple [t] satisfies predicate [θ] iff [refines θ (signature t)]. *)

type t
(** Canonical representation: an array [r] with [r.(i)] the smallest
    element of [i]'s block; invariants [r.(i) <= i] and
    [r.(r.(i)) = r.(i)] hold for all [i].  Values of this type are
    immutable by convention: no function in this interface mutates its
    arguments or shares its result with an argument. *)

(** {1 Construction} *)

val bottom : int -> t
(** All-singletons partition of size [n] (the empty join predicate). *)

val top : int -> t
(** One-block partition of size [n] (all attributes equated). *)

val of_rep_array : int array -> t
(** Canonicalise an arbitrary "representative" array: elements [i], [j] end
    in the same block iff chasing [a.(i)] and [a.(j)] reaches a common
    element.  Raises [Invalid_argument] if an entry is out of bounds. *)

val of_blocks : int -> int list list -> t
(** [of_blocks n blocks] builds the partition whose non-singleton structure
    is given by [blocks]; elements not mentioned become singletons.
    Raises [Invalid_argument] on out-of-range or duplicate elements. *)

val of_pairs : int -> (int * int) list -> t
(** Transitive-reflexive-symmetric closure of a set of equality atoms. *)

val of_dsu : Dsu.t -> t

(** {1 Basic observations} *)

val size : t -> int
(** Number of elements [n]. *)

val rep : t -> int -> int
(** Canonical (smallest) member of the block of [i]. *)

val same : t -> int -> int -> bool
(** Do [i] and [j] lie in the same block? *)

val block_count : t -> int

val rank : t -> int
(** [size p - block_count p]: the number of independent equality atoms;
    0 for {!bottom}, [n-1] for {!top}.  Monotone w.r.t. refinement. *)

val blocks : t -> int list list
(** Blocks as sorted lists, ordered by their smallest element; includes
    singletons. *)

val nontrivial_blocks : t -> int list list
(** Blocks of size [>= 2] only. *)

val block_sizes : t -> int list
(** Sizes of all blocks, in block order. *)

val pairs : t -> (int * int) list
(** All equated pairs [(i, j)] with [i < j], lexicographically sorted.
    [List.length (pairs p)] is the number of equality atoms [p] demands
    (the transitive closure, not a spanning set). *)

val is_bottom : t -> bool
val is_top : t -> bool

(** {1 Order and lattice operations} *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** A total order (lexicographic on the canonical arrays), suitable for
    [Set]/[Map]; unrelated to refinement. *)

val hash : t -> int

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by partitions (memoisation of per-signature work). *)

val refines : t -> t -> bool
(** [refines p q] iff [p ⊑ q]: every equality demanded by [p] is demanded
    by [q].  Reflexive.  Raises [Invalid_argument] on size mismatch. *)

val meet : t -> t -> t
(** Coarsest common refinement: equates exactly the pairs equated by both
    arguments.  Greatest lower bound for {!refines}. *)

val join : t -> t -> t
(** Finest common coarsening: transitive closure of the union of the two
    equality relations.  Least upper bound for {!refines}. *)

val restrict : t -> allowed:(int * int -> bool) -> t
(** [restrict p ~allowed] keeps only the equalities of [p] whose pair
    [(i, j)], [i < j], satisfies [allowed], then closes transitively.
    Used to confine inferred predicates to cross-relation atoms. *)

(** {1 Conversions} *)

val to_rgs : t -> int array
(** Restricted-growth-string encoding: [rgs.(i)] is the index of [i]'s
    block when blocks are numbered by first occurrence; [rgs.(0) = 0] and
    [rgs.(i+1) <= 1 + max rgs.(0..i)]. *)

val of_rgs : int array -> t

val to_string : t -> string
(** E.g. ["{0,2}{1}{3,4}"]. *)

val of_string : string -> (t, string) result
(** Parse the {!to_string} format.  Every element [0 .. n-1] must appear
    exactly once (with [n] inferred from the input); blocks may be listed
    in any order. *)

val to_string_names : string array -> t -> string
(** Same, with attribute names; e.g. ["{To,City}{From}"]. *)

val pp : Format.formatter -> t -> unit
