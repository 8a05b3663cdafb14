(** Per-session vote coordinator: fan a session's pending question out to
    the crowd, collect [+]/[−] ballots, and decide the aggregate label.

    The coordinator is a pure in-memory state machine, owned by the
    thread that serves its session.  The {!Service} drives it and owns
    every effect: when
    {!expire} or {!vote} returns [Aggregate l], the service absorbs [l]
    through the normal answer path — journaling it as the session's only
    event for the round — and reports back with {!absorbed} (engine took
    it) or {!rejected} (engine refused it as contradictory; the round is
    re-asked).  Nothing here is journaled: after a crash or failover the
    coordinator comes back empty and labelers re-attach, while the
    absorbed aggregates replay from the journal like any other answers.

    Aggregation is {!Jim_core.Votes}: exact majority, or accuracy-weighted
    majority (Laplace-smoothed running per-labeler accuracy) when
    [weighted] — with fresh labelers the two are bit-identical.

    Time is injected (absolute [now] floats, matching the service's
    injectable clock) and the straggler deadline is only checked when
    {!expire} is called — on each poll and vote — so there is no timer
    thread and tests are deterministic. *)

type config = {
  votes : int;  (** quorum size [K]; must be odd and positive *)
  timeout : float;  (** straggler deadline per round, seconds; > 0 *)
  weighted : bool;  (** weight ballots by estimated labeler accuracy *)
}

type t

type decision =
  | Wait  (** round still open — keep polling *)
  | Aggregate of Jim_core.State.label
      (** quorum or decisive-at-deadline: absorb this label, then call
          {!absorbed} (or {!rejected} if the engine refuses it) *)

val create : now:float -> config -> t
(** Round 1 opens immediately with its deadline at [now + timeout].
    Raises [Invalid_argument] on even/non-positive [votes] or a
    non-positive [timeout]. *)

val quorum : t -> int
val round : t -> int
(** The current round number, starting at 1.  Bumped every time a round
    closes or is re-asked, which is what invalidates stale ballots. *)

val attach : t -> int
(** Register a labeler; returns its id (unique within the session). *)

val known : t -> int -> bool

val accuracy : t -> int -> int * int
(** [(agreed, voted)] for a labeler — the running accuracy evidence.
    Raises [Invalid_argument] for an unknown id. *)

val expire : now:float -> t -> decision
(** Check the straggler deadline.  Before it: [Wait].  At or past it:
    with no ballots the deadline is silently reset ([Wait]); with a
    decisive tally the round closes short ([timeouts] counter,
    [Aggregate]); with a tied tally the round is re-asked ([re_asks]
    counter, ballots discarded, [Wait]). *)

val vote :
  now:float ->
  t ->
  labeler:int ->
  round:int ->
  label:Jim_core.State.label ->
  [ `Unknown | `Stale | `Counted of decision ]
(** Cast a ballot.  [`Unknown]: unregistered labeler.  [`Stale]: the
    ballot named a round that already closed, or this labeler already
    voted this round — not counted, no state change.  [`Counted]: the
    ballot entered the tally; [Aggregate] exactly when it completed the
    quorum.  (A quorum that ties — possible only under weighted
    aggregation — re-asks the round and counts as [Wait].)  Call
    {!expire} first so an overdue round is settled before new ballots
    are judged against it. *)

val absorbed : now:float -> t -> Jim_core.State.label -> unit
(** The service absorbed and journaled the aggregate: credit each ballot
    against it in the accuracy estimator, bump [rounds]/[paid_labels]
    (and [majority_flips] if anyone dissented), and open the next
    round. *)

val rejected : now:float -> t -> unit
(** The engine refused the aggregate (contradiction): discard the
    ballots and re-ask the same question as a new round. *)

val stats : t -> Jim_api.Protocol.crowd_stats
