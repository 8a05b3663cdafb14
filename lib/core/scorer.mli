(** The pick-scoped scoring engine behind every strategy.

    Lookahead strategies re-classify every informative class under two
    hypothetical states per candidate — O(k²) lattice meets per question
    when done naively.  A scorer shares the [meet s sig_i] table across
    candidates, memoises classifications in a {!memo} keyed by the
    state × class index (hypothetical states repeat within a pick:
    across candidates, across the count and cardinality passes, and
    across the inner sweeps of a depth-2 lookahead), and picks the
    best-scoring candidate in one sequential scan.

    Perf counters (meets, classifications, memo hits/misses) are counted
    in the pick's memo and handed on as one batch by {!take}. *)

type t
(** A scorer for one state: the state, the signature classes and the
    informative set.  Cheap to build; reads and fills its pick's memo. *)

type memo
(** One pick's classification memo: plain tables that live as long as
    the pick (or one top-k ranking) and are then dropped, so nothing
    grows with the states a session or an instance has visited.

    A status row is one byte per class (0 until computed, then one code
    per {!State.status}), keyed by the pair words of the state's [s] and
    its sorted negatives (equal exactly when {!State.key}s are); a meet
    row is one pair-word slot per class, keyed by the words of [s].  Every
    memoised value is a pure function of its key, so the memo changes
    counts but never a status, score or pick.  A memo is used by one
    thread at a time. *)

val new_memo : unit -> memo
(** A fresh, empty memo with zeroed counts. *)

val take : memo -> Metrics.snapshot
(** The work counted in the memo since the last [take] (meets,
    classifications, hits, misses; no pick), and zero the counts.
    {!Session} takes it once per pick into the engine's own counters. *)

val create : ?memo:memo -> State.t -> Sigclass.cls array -> int array -> t
(** [create st classes informative]: scorer over the given informative
    class indices (first-occurrence order).  A fresh memo is used unless
    [?memo] supplies the pick's. *)

val of_state : ?memo:memo -> State.t -> Sigclass.cls array -> t
(** Like {!create}, computing the informative set itself (through the
    memo row of the state). *)

val state : t -> State.t
val informative : t -> int array

(** {1 Memoised per-candidate work} *)

val meet_rank : t -> int -> int

val hypothetical : t -> int -> State.t option * State.t option
(** States after answering candidate [c] with [+] / [−]; [None] marks
    the contradictory branch.  Memoised per candidate. *)

val decided_counts : t -> int -> int * int
(** Memoised {!Strategy.decided_counts} (same semantics: the asked class
    counts as decided; a dead branch decides everything). *)

val decided_cards : t -> int -> int * int
(** Same, weighting each decided class by its tuple cardinality. *)

val decided_under : t -> State.t -> int
(** Number of the scorer's informative classes decided in an arbitrary
    (hypothetical) state — the depth-2 lookahead building block. *)

val vs_split : t -> int -> float * float
(** Version-space sizes of the two hypothetical branches (0 for a dead
    branch).  May be [infinity] for wide instances — see the entropy
    strategy's fallback. *)

(** {1 Argmax} *)

val best : t -> (t -> int -> float) -> int option
(** [best sc score] = the informative class maximising [score]: one
    scan in {!informative} order that moves only on a strictly greater
    score, so ties go to the lowest index; [None] iff nothing is
    informative. *)
