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

    Writes come in two halves: {!stage} puts an event down (journal
    write plus shadow fold, no fsync) and {!sync} is the durability
    barrier over everything staged so far.  A serving primary stages
    every event of an event-loop turn and syncs once before any reply
    of the turn leaves; {!record} is the two halves back to back.

    Concurrency: every write function is thread-safe.  One store lock
    is held for the whole of every {!stage}, {!sync}, {!checkpoint} and
    {!close}, fsync included, so they run one at a time: a checkpoint
    never rotates the journal under a barrier, and records arriving
    mid-checkpoint wait and land in the new generation.  A serving
    process has a single appender, its event loop, so the lock is
    uncontended there. *)

type t

val open_dir :
  ?fsync:bool ->
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
    [snapshot_every] (default 1024): journal records per generation —
    the automatic checkpoint runs at the start of the next record,
    before it is appended.  [io] (default {!Io.real}): the filesystem
    the store runs against — a fault filesystem in tests. *)

val stage : t -> Event.t -> string
(** Stage one (concrete) event for the journal and fold it into the
    shadow; the next {!sync} writes it and makes it durable.  Returns
    the payload journaled, the bytes a replication stream ships.  A
    [Started] on an inline CSV instance whose text this generation's
    files already hold is journaled as a [Catalog fp] reference (see
    {!Instances}); recovery resolves it back.  Raises
    {!Journal.Poisoned} on a poisoned store.  The automatic checkpoint
    runs here, before the event is staged: if it fails it raises (as
    {!sync} does on a disk failure) and the event leaves no trace. *)

val sync : t -> unit
(** The durability barrier: writes every event staged so far and
    returns once they are durable.  May raise [Unix.Unix_error] if the
    disk fails — the callers' replies turn into a typed internal error,
    and their in-memory sessions are then ahead of the log (documented,
    unrecovered).  The journal is then poisoned: the shadow holds
    staged events the disk never got, so every later {!stage},
    {!record} and {!checkpoint} raises {!Journal.Poisoned} and the
    store must be reopened. *)

val record : t -> Event.t -> unit
(** {!stage} then {!sync}: returns once the event is durable. *)

val record_many : t -> Event.t list -> (unit, string) result
(** Journal a batch of events as one combined write under one fsync
    barrier, and fold them into the shadow.  Events may be concrete or
    in a generation's journal form: a [Catalog fp] source resolves
    against this generation's instance table as the batch's earlier
    events leave it, and each event is written in the form that table
    calls for, so a batch writes the same bytes as the same events
    recorded one by one.  A reference with no origin refuses the whole
    batch with an [Error] before anything is staged.  Raises as
    {!stage} and {!sync}. *)

val checkpoint : ?gen:int -> t -> unit
(** Force a snapshot + journal rotation now (tests, graceful shutdown,
    a standby following its primary) into generation [gen] (default:
    the next one).  Raises [Invalid_argument] unless [gen] is above the
    current generation; raises as {!record} on a failed write, with the
    store left usable at its current generation, and
    {!Journal.Poisoned} on a poisoned store. *)

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
(** Batch size distribution of the current journal generation
    (see {!Journal.batch_stats}); resets when a checkpoint rotates the
    journal. *)

val canonical_csv : Jim_relational.Relation.t -> string
(** The instance's canonical CSV rendering ({!Jim_relational.Csv.canonical}):
    schema header (names then type names) plus every tuple,
    order-sensitive.  The catalog keys
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
