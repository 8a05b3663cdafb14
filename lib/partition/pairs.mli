(** Pair bitsets: a partition of [{0 .. n-1}] as the set of attribute
    pairs it equates — the engine's classification kernel.

    Bit [(i, j)], [i < j], is set when [i] and [j] share a block.  A value
    is [⌈n(n-1)/2 / w⌉] machine words, [w] = [Sys.int_size] (63 on 64-bit
    hosts): one word up to [n = 11], two up to [n = 16], and every
    operation runs one loop over the words, however many there are.
    Equality relations intersect by [land], so {!meet} is one [land] per
    word and refinement one [land lnot] per word.

    The values carry no size: functions that need [n] take it, and two
    values must come from the same [n] ({!Partition.t} is the type the
    API, the codec and transcripts use). *)

type t

val of_partition : Partition.t -> t

val of_values : ('a -> 'a -> bool) -> 'a array -> t
(** [of_values eq a]: the partition of [a]'s positions that equates [i]
    and [j] iff [eq a.(i) a.(j)], built without a {!Partition.t};
    [eq] must be an equivalence. *)

val of_ints : int array -> t
(** [of_values ( = )] on ints, without a call per pair: for callers that
    can key their values by ints. *)

val to_partition : int -> t -> Partition.t
(** [to_partition n (of_partition p)] equals [p] for [p] of size [n]. *)

val top : int -> t
(** Every pair equated: [of_partition (Partition.top n)]. *)

val meet : t -> t -> t
(** The pairs equated by both: a freshly allocated value unless it has
    no words.  Raises [Invalid_argument] on a word-count mismatch, as do
    {!refines} and {!meet_refines}. *)

val refines : t -> t -> bool
(** [refines a b] iff [a ⊑ b]: every pair of [a] is a pair of [b]. *)

val meet_refines : t -> t -> t -> bool
(** [meet_refines s g u] iff [meet s g ⊑ u], without building the meet:
    the certain-negative test of a classification. *)

val equal : t -> t -> bool

val hash : t -> int
(** Consistent with {!equal}: for hash tables keyed by pair sets. *)

val rank : int -> t -> int
(** {!Partition.rank}: the number of elements that are not the smallest
    of their block. *)

val block_sizes : int -> t -> int list
(** {!Partition.block_sizes}: blocks ordered by their smallest element. *)
