(** The interactive inference engine of Fig. 2: maintain the knowledge
    state over an instance's signature classes, hand out questions
    according to a strategy, absorb answers, detect termination.

    The engine is a thin mutable shell over the immutable {!State.t}
    (needed by the TUI, which interleaves rendering with answers), and
    the one record of a session: every absorbed label with the state
    after it, the decided totals, a sticky contradiction flag and the
    engine's own work counters.  {!history}, {!explain_class}, {!undo},
    {!outcome} and {!Stats.of_engine} all read that record, so the
    server's replies and the in-process {!run} cannot drift apart. *)

type t

type error = Contradiction | Nothing_to_undo
(** Every way an engine operation can be refused.  One concrete type (not
    per-function polymorphic variants) so callers — in particular the
    wire protocol — can serialise and report engine errors uniformly. *)

val error_to_string : error -> string

val create : Jim_relational.Relation.t -> t
(** Precomputes the signature classes of the instance.  The engine holds
    no scorer memo: each question scores on a fresh {!Scorer.memo}. *)

val of_classes :
  ?statuses:State.status array ->
  ?row_class:int array ->
  n:int ->
  Sigclass.cls array ->
  t
(** Engine over pre-built classes ([n] = attribute count); for synthetic
    workloads, and for warm starts off a catalog entry: [?statuses]
    supplies the round-0 class statuses (copied — the engine mutates its
    own) and [?row_class] the row → class map, skipping both
    derivations.  The optional arguments must
    describe exactly these [classes]. *)

val state : t -> State.t
val classes : t -> Sigclass.cls array

val status : t -> int -> State.status
(** Current status of a class (memoised between answers). *)

val row_status : t -> int -> State.status
(** Status of an instance row (mode-2 graying). *)

val informative : t -> int list
(** Indices of informative classes, first-occurrence order. *)

val finished : t -> bool

val asked : t -> int
(** Number of answers absorbed so far. *)

val decided_totals : t -> int * int
(** [(classes, tuples)] no longer informative: classes, and tuples
    weighted by class cardinality.  Counted while the statuses are
    refreshed, so reading it costs nothing. *)

val counters : t -> Metrics.snapshot
(** This engine's own work since it was built: each pick (meets,
    classifications, memo hits and misses, wall time) and each answer's
    status refresh, exactly the batches it added to the process-wide
    {!Metrics} totals.  An {!undo} keeps them: work done stays done. *)

val question : t -> Strategy.t -> Random.State.t -> int option
(** Ask the strategy for the next class; [None] iff finished.  The
    pick's work is added to {!counters} and to {!Metrics}. *)

val top_questions : t -> Strategy.t -> Random.State.t -> int -> int list
(** Greedy top-[k] ranking: repeatedly ask the strategy, masking what it
    already proposed (mode 3 of Fig. 3).  The [k] picks score one state,
    so they share one {!Scorer.memo}. *)

val answer : t -> int -> State.label -> (unit, error) result
(** Absorb the user's label for a class.  On [Error Contradiction] the
    engine is unchanged but for its contradiction flag, which stays set
    (see {!outcome}); [Nothing_to_undo] cannot occur here. *)

val absorb :
  t -> Jim_partition.Partition.t -> State.label -> (unit, error) result
(** Absorb a labelled signature directly (it need not be a class of the
    instance) — transcript replay across instance revisions.  Like
    {!answer}, but the label yields no {!event}. *)

val history : t -> (Jim_partition.Partition.t * State.label) list
(** Every label absorbed so far, in chronological order. *)

val undo : t -> (unit, error) result
(** Retract the most recent label (the user mis-clicked): the state,
    statuses, history, {!asked} and {!decided_totals} roll back to just
    before it. *)

val result : t -> Jim_partition.Partition.t
(** The inferred predicate (canonical representative [s]); meaningful once
    {!finished}. *)

val explain_class : t -> int -> Explain.why
(** Certificate for a class's current status (see {!Explain}). *)

val explain_row : t -> int -> Explain.why

(** {1 Closed-loop driver} *)

type event = {
  step : int;
  cls : int;                      (** class asked *)
  row : int;                      (** representative row shown *)
  sg : Jim_partition.Partition.t;
  label : State.label;
  decided_after : int;            (** classes certain after this answer *)
  tuples_decided_after : int;     (** tuples (cardinality-weighted) certain *)
  vs_after : float;               (** version-space size after this answer *)
}

type outcome = {
  query : Jim_partition.Partition.t;
  events : event list;            (** chronological *)
  interactions : int;             (** questions answered *)
  contradiction : bool;           (** true iff aborted on an inconsistent user *)
}

val outcome : t -> outcome
(** The session so far: {!result}, one event per label still held that
    was absorbed by {!answer} (oldest first, [step] = {!asked} just
    after it), {!asked}, and whether any label was ever refused as
    contradictory (an {!undo} does not clear that).  Each event's
    version-space size is counted the first time an outcome needs it. *)

val run :
  ?seed:int -> strategy:Strategy.t -> oracle:Oracle.t ->
  Jim_relational.Relation.t -> outcome

val run_classes :
  ?seed:int -> strategy:Strategy.t -> oracle:Oracle.t ->
  n:int -> Sigclass.cls array -> outcome

val run_engine :
  ?seed:int -> strategy:Strategy.t -> oracle:Oracle.t -> t -> outcome
(** Drive an already-built engine until it is finished or a label is
    refused, then return its {!outcome} — the building block of {!run}
    and {!run_classes}, exposed so warm-started engines (see
    {!of_classes}) can be driven the same way. *)
