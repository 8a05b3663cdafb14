(** The durable session store: the runtime handle a server threads its
    {!Event}s through.

    The store keeps a lightweight {e shadow} of every live session
    (source, strategy, seed, surviving labels) rebuilt from the same
    events it journals, so checkpoints never need to consult the engine:
    a record that finds the generation full (its [snapshot_every]
    records written) first compacts the shadow into a {!Snapshot},
    starts a fresh journal generation and deletes the old files.  Each
    generation's files hold each inline instance's CSV text once
    ({!Instances}).

    A replication standby (lib/shard) is a store too, fed the
    primary's records through {!record_many} and checkpointing when
    the primary does, so its files are written by this same path.

    Concurrency: {!record} and {!record_many} are thread-safe.  Shadow
    updates take a short store lock; the journal append itself runs
    outside it and group-commits (see {!Journal}), so concurrent
    sessions share fsync barriers.  A checkpoint briefly quiesces
    appends (records arriving mid-checkpoint wait, and land in the new
    generation). *)

type t

val open_dir :
  ?fsync:bool ->
  ?commit_window:float ->
  ?snapshot_every:int ->
  ?io:Io.t ->
  string ->
  (t * Recovery.t, string) result
(** Open (creating the directory if needed) and recover: load the latest
    snapshot generation, scan the journal tail — cutting a torn final
    record, halting on mid-log corruption — sweep stale generations, and
    reopen the journal for appending.  Returns the handle plus the
    recovered state for {!Jim_server.Service.restore}.

    [fsync] (default [true]): turn off the durability barrier (benchmarks
    and tests only — acknowledged answers can then be lost to a crash).
    [commit_window] (seconds, default [0.]): adaptive group-commit
    window — a journal fsync leader under contention dallies up to this
    long so queued records join its combined append (see
    {!Journal.create}); [0.] keeps per-record writes.  Raises
    [Invalid_argument] if negative.  [snapshot_every] (default 1024):
    journal records per generation — the automatic checkpoint runs at
    the start of the next record, before it is appended.  [io] (default
    {!Io.real}): the filesystem the store runs against — a fault
    filesystem in tests. *)

val record : t -> Event.t -> unit
(** Journal one (concrete) event; returns once it is durable.  A
    [Started] on an inline CSV instance whose text this generation's
    files already hold is journaled as a [Catalog fp] reference (see
    {!Instances}); recovery resolves it back.  May raise
    [Unix.Unix_error] if the disk fails — the caller's reply turns into a
    typed internal error, and the in-memory session is then ahead of the
    log (documented, unrecovered).  A failed automatic checkpoint raises
    before the event is appended, so the event leaves no trace.
    [record t ev] is [record_many t [ev]]. *)

val record_many : t -> Event.t list -> (unit, string) result
(** Journal a batch of events under one fsync barrier
    ({!Journal.append_many}) and fold them into the shadow.  Events may
    be concrete or in a generation's journal form: a [Catalog fp]
    source resolves against this generation's instance table as the
    batch's earlier events leave it, and each event is written in the
    form that table calls for, so a batch writes the same bytes as the
    same events recorded one by one.  A reference with no origin
    refuses the whole batch with an [Error] before anything is written.
    Raises as {!record} on a disk failure; the batch then leaves no
    trace in the shadow. *)

val checkpoint : ?gen:int -> t -> unit
(** Force a snapshot + journal rotation now (tests, graceful shutdown,
    a standby following its primary) into generation [gen] (default:
    the next one).  Raises [Invalid_argument] unless [gen] is above the
    current generation; raises as {!record} on a failed write, with the
    store left usable at its current generation. *)

val close : t -> unit

val dir : t -> string

val io : t -> Io.t
(** The I/O seam the store runs against — the replication sender reads
    the current snapshot/journal files through it when a standby
    attaches. *)

val generation : t -> int

val record_count : t -> int
(** Records appended to the current journal generation (resets on
    checkpoint). *)

val commit_stats : t -> Journal.batch_stats
(** Group-commit batch distribution of the current journal generation
    (see {!Journal.batch_stats}); resets when a checkpoint rotates the
    journal. *)

val canonical_csv : Jim_relational.Relation.t -> string
(** The instance's canonical CSV rendering — schema header (names then
    type names) plus every tuple, order-sensitive.  The catalog keys
    entries by its fingerprint and accounts their size in its bytes. *)

val fingerprint_of_csv : string -> string
(** CRC-32 (hex) of an already-rendered canonical CSV — lets a caller
    that needs both the rendering and the fingerprint (the catalog)
    render once. *)

val fingerprint : Jim_relational.Relation.t -> string
(** [fingerprint_of_csv (canonical_csv rel)].  Journaled at session
    start; {!Jim_server.Service.restore} resolves the journaled source
    through the catalog and refuses to replay onto a drifted instance.
    Also the key of the server-wide instance catalog ([Jim_catalog]). *)
