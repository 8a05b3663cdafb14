(** Strategies Υ: given the current knowledge and the informative
    signature classes, choose the next tuple (class) to show the user.

    The catalogue follows the taxonomy of the paper: a [random] baseline,
    simple [local] strategies driven by a fixed order on signatures, and
    [lookahead] strategies that score each candidate by the quantity of
    information its label would bring (pruning counts or the entropy of
    the version-space split).  The exponential [optimal] yardstick lives
    in {!Optimal}.

    All scored strategies route through {!Scorer}, which memoises the
    per-candidate work and picks the best-scoring candidate, lowest
    index winning ties. *)

type ctx = {
  state : State.t;
  classes : Sigclass.cls array;
  informative : int array;
      (** indices into [classes], first-occurrence order *)
  memo : Scorer.memo;
      (** the pick's classification memo: fresh per question (one
          top-k ranking shares one); it also counts the pick's work *)
  rng : Random.State.t;  (** private to the strategy *)
}

type t = {
  name : string;
  descr : string;
  kind : [ `Random | `Local | `Lookahead ];
  pick : ctx -> int option;
      (** [None] iff [informative] is empty.  Must return a member of
          [informative]. *)
}

val random : t
(** Uniformly random informative class. *)

val local_specific : t
(** Maximise [rank (s ∧ sig)]: ask about tuples sharing as many equalities
    with the current candidate [s] as possible (top-down sweep of the
    ideal). *)

val local_general : t
(** Minimise [rank (s ∧ sig)]: bottom-up sweep. *)

val local_lex : t
(** First informative class in a fixed lexicographic order on signatures —
    the simplest "fixed order" local strategy. *)

val lookahead_maximin : t
(** Maximise [min(#classes decided if +, #classes decided if −)] (the
    decided count includes the asked class). *)

val lookahead_expected : t
(** Maximise the mean of the two pruning counts, tuple-weighted: counts
    sum class cardinalities, so big uninformative chunks are pruned
    early. *)

val lookahead_entropy : t
(** Maximise the binary entropy of the version-space split
    [(|VS if +|, |VS if −|)] — prefers questions whose answers are most
    balanced, i.e. carry the most information about the goal.  When the
    counts saturate to [infinity] (wide instances) the entropy is
    undefined; the score falls back to the maximin pruning count instead
    of degenerating to the first informative class. *)

val all : t list
(** The catalogue above, in presentation order.  ({!lookahead2} and
    {!optimal} are not members: the former so the cheap catalogue stays
    cheap, the latter because it is exponential.) *)

val find : string -> t option
(** Catalogue lookup by name ({!all} only). *)

(** {1 The canonical name table}

    Every surface that names strategies — the CLI, the bench [compare]
    harness, the wire protocol — resolves names through {!of_string}, so
    there is exactly one table. *)

val lookahead2 : ?beam:int -> unit -> t
(** {!Lookahead2.pick} wrapped as ["lookahead-2"] (default beam 8). *)

val optimal : ?max_states:int -> unit -> t
(** {!Optimal.best_question} wrapped as ["optimal"]. *)

val names : string list
(** Every canonical strategy name: {!all} plus ["lookahead-2"] and
    ["optimal"]. *)

val of_string : string -> (t, string) result
(** Resolve any name in {!names} (also accepts the alias ["lookahead2"]);
    the error is a human-readable "unknown strategy" message listing the
    table.  Round-trips with {!to_string}. *)

val to_string : t -> string
(** The strategy's canonical name ([to_string s = s.name]). *)

(** {1 Helpers shared with {!Optimal} and the interaction modes} *)

val scorer_of : ctx -> Scorer.t
(** The pick's scoring engine (on the context's memo). *)

val decided_counts : State.t -> Sigclass.cls array -> int list -> int -> int * int
(** [decided_counts st classes informative c]: numbers of currently
    informative classes (including [c]) that become certain if class [c]
    is labelled [+] and [−] respectively.  A contradictory branch counts
    every remaining class as decided (that answer would end the session
    anyway — it cannot happen with a sound user).

    This is the {e unmemoised reference implementation}; strategies use
    the equivalent {!Scorer.decided_counts} (the equivalence is pinned
    by a property test). *)

val decided_cards : State.t -> Sigclass.cls array -> int list -> int -> int * int
(** Same, weighting each decided class by its tuple cardinality
    (unmemoised reference for {!Scorer.decided_cards}). *)

val hypothetical : State.t -> Jim_partition.Partition.t -> State.t option * State.t option
(** States after labelling a tuple of the given signature [+] / [−];
    [None] marks the contradictory branch. *)
