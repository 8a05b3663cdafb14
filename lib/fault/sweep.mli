(** Exhaustive simulated crash sweeps: drive a full multi-session
    inference workload through a durable {!Jim_shard.Node} — the same
    assembly [jim serve] runs — whose store lives on a {!Memfs}, injure the filesystem at
    every interesting point, and prove recovery.

    Each sweep replays the {e same} deterministic workload (sessions over
    synthetic instances, oracle-answered, round-robin) under a family of
    {!Plan}s, then restarts a primary node on each post-crash disk image
    ({!Memfs.durable_image} and {!Memfs.flushed_image}) and holds it to
    the store's contract:

    - every session whose [Start_session] was acknowledged is recovered;
    - per session, recovered answers ∈ [acked, acked + 1] (at most the
      one in-flight record);
    - every recovered session, driven to completion, finishes
      bit-identical ({!Jim_server.Smoke.outcome_equal}) to an
      uninterrupted in-process {!Jim_core.Session.run}.

    No processes are spawned and no real disk is touched: one crash point
    costs two in-memory recoveries, so sweeping {e every} write boundary
    of a 50+-event workload is cheap enough for the default test run. *)

exception Divergence of string
(** A recovery contract violation (lost acked answer, diverged resume,
    refused recovery).  Injected faults themselves never raise this —
    they are the point. *)

type spec = {
  seed : int;  (** base seed; session [i] uses [seed + i] *)
  strategies : string list;  (** round-robin across sessions *)
  sessions : int;
  snapshot_every : int;
      (** keep small (e.g. 16) so sweeps cross checkpoint rotations *)
  shared_inline : bool;
      (** [false]: session [i] starts on its own [Synthetic] instance,
          and every session starts before the first answer.  [true]:
          sessions alternate over two synthetic instances shipped as
          [Csv_inline] text, and session [i] starts just before round
          [i] of the round-robin, so sessions on one instance start
          within one generation and across checkpoints — the journal
          and snapshots then carry instance references
          ({!Jim_store.Instances}). *)
}

val default : spec
(** 7 sessions, lookahead-entropy/random alternating, [snapshot_every =
    16], each on its own synthetic instance — journals 60+ events and
    crosses several checkpoints. *)

type stats = {
  events : int;  (** events the uninterrupted reference run journals *)
  points : int;  (** fault points exercised *)
  runs : int;  (** faulted workload executions *)
  images : int;  (** post-crash disk images recovered and verified *)
}

val crash_sweep :
  ?catalog:Jim_catalog.Catalog.t ->
  ?chunk:int ->
  ?stride:int ->
  ?applied:int list ->
  spec ->
  stats
(** Power cut at every write ordinal of the reference run (or every
    [stride]th, default 1), each with every partial-application count in
    [applied] (default [[0; 3]]: a clean cut at the boundary and a torn
    tail 3 bytes in).  [chunk] caps bytes-per-write for the whole family
    ({!Plan.t.write_chunk}), multiplying the boundaries swept.  Raises
    {!Divergence} on any contract violation.

    [catalog] (here and in every sweep below): when given, {e all}
    services of the sweep — the faulted runs and every recovery
    verification — resolve instances through this one shared catalog, so
    recoveries warm-start off shared entries exactly as a long-lived
    server would.  The recovery contract must hold identically. *)

val fsync_sweep :
  ?catalog:Jim_catalog.Catalog.t -> ?stride:int -> spec -> stats
(** Fail every fsync ordinal (EIO, fsyncgate semantics: the journal
    poisons itself and refuses further appends); both images must still
    recover every previously acknowledged answer. *)

val write_error_sweep :
  ?catalog:Jim_catalog.Catalog.t -> ?stride:int -> spec -> stats
(** Fail every write ordinal with EIO (transient disk error — the
    filesystem survives, the journal poisons itself). *)

val enospc_sweep :
  ?catalog:Jim_catalog.Catalog.t -> ?points:int -> spec -> stats
(** Run the workload under [points] (default 8) byte budgets spread over
    the reference run's total accepted bytes; the disk filling mid-record
    must still leave every acked answer recoverable. *)

val chunk_run : ?catalog:Jim_catalog.Catalog.t -> chunk:int -> spec -> stats
(** No faults, but every write accepts at most [chunk] bytes: the
    short-write retry loops must reassemble bit-identical journals and
    the workload must complete exactly like the reference run. *)

val crowd_crash_sweep :
  ?catalog:Jim_catalog.Catalog.t ->
  ?chunk:int ->
  ?stride:int ->
  ?applied:int list ->
  ?votes:int ->
  spec ->
  stats
(** {!crash_sweep} over the {e crowd-labeled} workload: every session is
    answered by a [votes]-strong (default 3, must be odd and positive)
    perfect crowd — attach, poll, unanimous ballots — so each round
    closes by quorum on the decisive ballot's acknowledgement.  Only the
    absorbed aggregate is journaled, hence every crash point lands at an
    aggregate-record boundary: mid-vote-collection, from the crowd's
    point of view.  Both post-crash images are verified through a
    service {e without} crowd labeling, proving the journal replays as
    plain answers (no ballot, no partial tally, ever on disk) and the
    recovered sessions resume bit-identically.  The fault-free reference
    run additionally pins the perfect crowd's live outcomes to the
    noiseless in-process {!Jim_core.Session.run}. *)

val crowd_replicated_run :
  ?catalog:Jim_catalog.Catalog.t -> ?votes:int -> spec -> stats
(** One fault-free primary/standby pair under the crowd workload: the
    replication stream carries only the journaled aggregates, so the
    promoted standby — which has no crowd machinery at all — must
    resume every session bit-identically.  Failover under primary
    crashes is {!replicated_sweep}'s job; the event stream is identical
    whether answers arrived directly or by vote. *)

val replicated_sweep :
  ?catalog:Jim_catalog.Catalog.t ->
  ?stride:int ->
  ?applied:int list ->
  spec ->
  stats
(** The failover drill, in-process: a primary/standby pair joined by the
    {!Jim_shard.Repl} journal stream (persist = record locally, then
    ship; the client is acked only after both), the primary power-cut at
    every write ordinal ([stride]/[applied] as in {!crash_sweep}) — i.e.
    at every record boundary and torn mid-record — and the standby
    promoted in its place by a [Promote] request to its
    {!Jim_shard.Node.of_standby} node, as a router fails over.  The
    promoted standby must meet the same three-part contract as a
    recovered disk image: every acked event present, at most one
    in-flight beyond, every session resuming bit-identically.  [images] counts promoted
    standbys (one per run; the primary's corpse is not re-examined —
    {!crash_sweep} owns that).  A fault-free reference pair is verified
    first, pinning the stream end-to-end. *)
