(** The concurrent session manager: many inference sessions, one process.

    Each {!Jim_api.Protocol.Start_session} builds an engine and registers
    it under a monotonically increasing id; every later request addresses
    the session by id.  A service is owned by the thread that serves it
    (a node's event loop): every call runs to completion before the
    next, so a session's events reach [persist] in the order they
    happened and none follows its [Ended].  A service has no locks;
    another thread may read only its {!catalog}, which keeps its own.

    Capacity is bounded: when [max_sessions] sessions are live, further
    [Start_session]s get a typed [Server_busy] reply (backpressure, not a
    hang).  Sessions idle longer than [idle_ttl] seconds are evicted by
    {!sweep}, which runs on every [Start_session] and periodically on
    the wire's event loop.

    Determinism: the pending question is computed once per round and
    cached until an answer or undo invalidates it, so a session driven
    through this interface asks exactly the question sequence of the
    in-process {!Jim_core.Session.run} with the same seed and strategy
    (the server smoke test pins outcomes bit-identical).  The service
    keeps no record of a session beside its engine: [Result], [Stats]
    and [Answered] replies read {!Jim_core.Session.outcome},
    {!Jim_core.Stats.of_engine} and {!Jim_core.Session.decided_totals}. *)

type t

val create :
  ?max_sessions:int ->
  ?idle_ttl:float ->
  ?now:(unit -> float) ->
  ?catalog:Jim_catalog.Catalog.t ->
  ?persist:(Jim_store.Event.t -> unit) ->
  ?crowd:Coordinator.config ->
  unit ->
  t
(** Defaults: 64 sessions, 600 s TTL, [Unix.gettimeofday].  [now] is
    injectable so tests can drive the TTL clock by hand.

    [catalog] is the instance catalog sessions resolve their sources
    through (each session pins its entry for its lifetime; starts on an
    already-cataloged instance are warm: no re-derivation).  A fresh private catalog is made when omitted; pass one to
    share instances across services (e.g. across restarts in the fault
    sweeps).

    [persist] is the durability hook: it is called with every
    state-mutating event (session start, acknowledged answer, undo, end —
    including idle evictions) {e before} the reply is built.  Wiring in
    {!Jim_store.Store.record} gives write-ahead semantics directly; a
    serving node wires in {!Jim_store.Store.stage} instead and runs the
    durability barrier before the reply leaves (see [Jim_shard.Node]),
    so either way an answer is never acknowledged before it is on
    disk.  When omitted the service is
    purely in-memory.  Session-start events journal the catalog entry's
    concrete origin source (never [Catalog fp] — a restart empties the
    catalog) plus its fingerprint, which the catalog computed exactly
    once per entry.

    [crowd] enables crowd labeling: every session gets a {!Coordinator}
    and its answers arrive only as vote aggregates
    ([Labeler_attach] / [Labeler_poll] / [Vote]).  Direct [Answer] and
    [Undo] on a crowd session are refused with the pinned
    [Bad_request] reasons ["session is crowd-labeled: answers arrive by
    vote"] and ["session is crowd-labeled: undo is disabled"]; on a
    service {e without} [crowd], the crowd messages are refused with
    ["crowd labeling disabled (start the server with --votes)"].  Only
    the absorbed aggregate reaches [persist] (as an ordinary Answered
    event), so durability, recovery, replication and bit-identity are
    untouched by voting.  Raises [Invalid_argument] for even or
    non-positive [votes] or a non-positive [timeout]. *)

val catalog : t -> Jim_catalog.Catalog.t
(** The catalog this service resolves through ([Catalog_stats] reads its
    {!Jim_catalog.Catalog.stats}). *)

val restore : t -> Jim_store.Recovery.t -> (int, string) result
(** Rebuild sessions from recovered state: re-resolve each source, verify
    its fingerprint, and replay the surviving labels through the same
    code path live requests use — so the resumed session's questions,
    RNG stream and result are bit-identical to an uninterrupted run.
    Returns how many sessions were restored; an error (drifted instance,
    unreplayable label) aborts the whole restore and registers nothing.
    Call once, before serving traffic: replay does not invoke [persist]
    (the journal already holds those events). *)

val handle : t -> Jim_api.Protocol.request -> Jim_api.Protocol.response
(** Serve one request.  Protocol-level failures come back as [Failed]
    replies, but exceptions from [persist] propagate:
    {!Jim_store.Store.record}'s I/O errors and a replication failure
    (the fault sweeps crash a node this way).  The wire path
    ([Jim_shard.Node.handle_line]) turns them into a
    [Bad_request "internal error: ..."] reply. *)

val sweep : t -> int
(** Evict sessions idle longer than the TTL; returns how many died. *)

val session_count : t -> int
