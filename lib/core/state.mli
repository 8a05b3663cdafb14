(** The learner's knowledge state: everything JIM retains about the labels
    seen so far, in the compact normal form that makes consistency and
    informativeness checks polynomial.

    Positives are summarised by their meet [s] (the most specific
    consistent predicate); negatives by the ⊑-maximal antichain of their
    signatures clipped into [↓s].  A predicate [θ] is consistent iff
    [θ ⊑ s] and [θ ⋢ u] for every stored negative [u].

    Values are immutable; {!add} returns a new state, which is what lets
    lookahead strategies evaluate hypothetical answers for free. *)

type label = Pos | Neg

type t = private {
  n : int;  (** number of attributes *)
  s : Jim_partition.Partition.t;
      (** meet of the positive signatures; [Partition.top n] initially *)
  negatives : Jim_partition.Partition.t list;
      (** ⊑-maximal negative signatures, each clipped to [↓s] (strictly
          below [s]); sorted by [Partition.compare] *)
  pos_count : int;
  neg_count : int;
  s_bits : Jim_partition.Pairs.t;  (** [s] as pair words *)
  neg_bits : Jim_partition.Pairs.t list;
      (** [negatives] as pair words, in the same order *)
}

val create : int -> t
(** No examples: every predicate over [n] attributes is consistent. *)

val add :
  t -> label -> Jim_partition.Partition.t -> (t, [ `Contradiction ]) result
(** Record the signature of a labelled tuple.  [`Contradiction] means no
    predicate is consistent with the labels any more (only possible with a
    noisy user); the state is unchanged in that case. *)

val add_bits :
  t ->
  label ->
  Jim_partition.Partition.t ->
  Jim_partition.Pairs.t ->
  (t, [ `Contradiction ]) result
(** {!add}, given the signature's pair words too (as a
    {!Sigclass.cls} carries them). *)

val add_exn : t -> label -> Jim_partition.Partition.t -> t
(** Raises [Invalid_argument] on contradiction. *)

val hypothetical : t -> Jim_partition.Partition.t -> t option * t option
(** States after labelling a tuple of the given signature [+] / [−];
    [None] marks the contradictory branch.  The helper behind every
    lookahead strategy (and {!Optimal}'s minimax search). *)

type status = Certain_pos | Certain_neg | Informative

val classify : t -> Jim_partition.Partition.t -> status
(** Where does a tuple with this signature stand?
    - [Certain_pos]: every consistent predicate selects it ([s ⊑ sig]);
    - [Certain_neg]: no consistent predicate selects it
      ([s ∧ sig ⊑ u] for some negative [u]);
    - [Informative]: consistent predicates disagree — labelling it will
      strictly shrink the version space. *)

val classify_bits : t -> Jim_partition.Pairs.t -> status
(** {!classify} on a signature's pair words (which must be over [n]
    attributes; nothing checks it). *)

val selects : t -> Jim_partition.Partition.t -> bool
(** Does the canonical predicate [s] select a tuple with this signature? *)

val consistent : t -> Jim_partition.Partition.t -> bool
(** Is the given predicate consistent with the labels? *)

val canonical : t -> Jim_partition.Partition.t
(** The most specific consistent predicate, [s]. *)

val key : t -> string
(** Canonical packing of [(s, negatives)]: the representative arrays of
    [s] and then of each negative, written as raw bytes (one byte per
    element while [n <= 255], two up to 65,535, four past that).  For
    states over the same [n], [key a = key b] iff [a] and [b] have equal
    [s] and [negatives] (the same consistent set).  Keys {!Optimal}'s
    memo. *)

val pp : Format.formatter -> t -> unit
