(** The round-scoped scoring engine behind every strategy.

    Lookahead strategies re-classify every informative class under two
    hypothetical states per candidate — O(k²) lattice meets per question
    when done naively.  A scorer shares the per-round [meet s sig_i]
    table across candidates, memoises classifications in a {!cache}
    keyed by [State.key] × class index (hypothetical states repeat
    within a round and across rounds: the answered branch becomes the
    next base state), and optionally fans candidate scoring out across
    domains with a deterministic lowest-index-wins merge, so parallel
    and sequential picks are bit-identical.

    Perf counters (meets, classifications, cache hits/misses, pick wall
    time) are recorded in {!Metrics}. *)

type t
(** A scorer for one question round: a state, the signature classes and
    the informative set.  Cheap to build; holds per-round memo tables. *)

type cache
(** The cross-round classification memo.  A {!Session} keeps one per
    engine so the work done evaluating a candidate is reused when its
    answer arrives (and by {!Session.top_questions}'s repeated picks).

    Rows are compact: a status row is one byte per class (0 until
    computed, then one code per {!State.status}), keyed by the packed
    {!State.key}; a meet row is one partition slot per class, keyed by
    {!State.canonical_key}, holding a physical sentinel until computed.

    A cache may also be shared by every session on one instance (the
    server's catalog does this): rows are interned in 16 stripes whose
    reads are lock-free — only interning a new row takes a per-stripe
    mutex — and every memoised value is a pure function of its key, so
    sharing changes hit/miss counts but never a status, score, or pick.

    The memo is bounded: each stripe owns 1/16 of the cache's byte
    budget, counting a row as its bytes plus its key plus a fixed
    per-row overhead (a meet row as if every slot were filled).  An
    insert that would overflow its stripe's share first drops every row
    of that stripe, counted as evictions.  Eviction only costs
    recomputation, so it too changes counts but never a pick.  A stripe
    exceeds its share only when a single row is larger than the share. *)

val default_budget_bytes : int
(** 8 MiB. *)

val new_cache : ?budget_bytes:int -> unit -> cache
(** A fresh, empty memo bounded by [budget_bytes] (default
    {!default_budget_bytes}). *)

type memo_stats = {
  rows : int;  (** status and meet rows currently interned *)
  bytes : int;  (** their accounted size *)
  evictions : int;  (** rows dropped to keep a stripe within budget *)
}

val memo_stats : cache -> memo_stats
(** A snapshot of the memo's counters (unlocked reads; exact when no
    session is scoring on the cache). *)

val create : ?cache:cache -> State.t -> Sigclass.cls array -> int array -> t
(** [create st classes informative]: scorer over the given informative
    class indices (first-occurrence order).  A fresh private cache is
    used unless [?cache] supplies a shared one. *)

val of_state : ?cache:cache -> State.t -> Sigclass.cls array -> t
(** Like {!create}, computing the informative set itself. *)

val informative_of : State.t -> Sigclass.cls array -> int array
(** Indices of informative classes, first-occurrence order. *)

val state : t -> State.t
val informative : t -> int array

(** {1 Memoised per-candidate work} *)

val meet_s : t -> int -> Jim_partition.Pairs.t
(** [meet s sig_i] as pair words, computed once per round per class. *)

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

val class_status : cache -> Sigclass.cls array -> State.t -> int -> State.status
(** Classification of one class through the shared cache — lets the
    session's status refresh reuse the scoring round's work. *)

(** {1 Parallel argmax} *)

val best : t -> (t -> int -> float) -> int option
(** [best sc score] = the informative class maximising [score],
    lowest index winning ties; [None] iff nothing is informative.
    With {!domains} [> 1] the candidates are scored across that many
    domains ([score] receives each domain's private scorer clone, so it
    must only depend on the scorer argument and the candidate).  The
    result is bit-identical to the sequential scan. *)

val domains : unit -> int
(** Scoring domains used by {!best}: the last {!set_domains} value,
    else [JIM_DOMAINS], else 1. *)

val set_domains : int -> unit
(** Override the domain count (the [--domains] CLI flag); clamped to
    [>= 1]. *)
