(** The receiving half of journal-streaming replication: a warm standby
    that builds, from the stream, the primary's data directory, and can
    be promoted through ordinary recovery.  It is a
    {!Jim_store.Store} fed by the stream, so its files are written by
    the primary's own write path: for a stream shipped in journal order
    they are byte-identical to the primary's; under concurrent writers
    each generation recovers the same sessions on both sides.

    Protocol (driven by {!Repl} on the primary, directly in-process or
    over the wire via the standby serve loop):

    + [install ~gen ~snapshot] — the attach-time baseline: the
      primary's current snapshot text (or [None] for a fresh store).
      Wipes whatever the standby held before, writes the snapshot bytes
      verbatim and opens a store over them.
    + [apply_batch records] — JREC records: the records in the
      primary's journal at attach time, then each new event in its
      concrete form ({!Repl.send}), landed through
      {!Jim_store.Store.record_many} — group-committed before the call
      returns, so an acknowledged record is durable here.
    + [rotate ~gen] — the primary checkpointed: the store checkpoints
      into generation [gen] (its only checkpoints).
    + [promote] — stop replicating and recover: runs
      {!Jim_store.Store.open_dir} over the accumulated directory, the
      same bit-identical replay path a restarted primary uses.

    A standby is owned by the thread that serves it: the standby
    node's event loop, or the primary's when an in-process standby is
    its replication target ({!Repl.of_standby}).  Calls never overlap,
    so it holds no lock. *)

type t

val create : ?io:Jim_store.Io.t -> ?fsync:bool -> dir:string -> unit -> t
(** A standby writing under [dir] (created if needed).  Nothing is
    written until the first {!install}. *)

val dir : t -> string

val install :
  t -> gen:int -> snapshot:string option -> (unit, string) result
(** A baseline snapshot that does not parse, or holds an instance
    reference with no origin earlier in it, is refused before anything
    is wiped; so is a generation above 0 with no snapshot. *)

val apply_batch : t -> string list -> (int * int, string) result
(** [apply_batch t records] lands one group-commit batch atomically:
    every record is decoded and its instance reference resolved first
    (a bad record rejects the whole batch with no side effects; nothing
    raises), then all of them are appended under a single fsync
    barrier.  Returns the batch's high-water [(generation, durable
    record count)] — the position a {!Jim_api.Protocol.Repl_batch} ack
    carries.  Errors: a malformed record, an instance reference with no
    origin in the current generation, no installed generation, or a
    local append failure — the primary treats any of these as a broken
    stream (the in-flight events are {e not} acknowledged upstream).
    The empty batch is a durable no-op. *)

val rotate : t -> gen:int -> (unit, string) result
(** Rotating to the current generation is a no-op, and skipping
    forward is legal.  A rotate before any install, or to a generation
    below the current one, is an [Error] that leaves the files
    untouched. *)

val position : t -> int * int
(** Current [(generation, records applied this generation)];
    [(-1, 0)] before the first install. *)

val promote :
  ?fsync:bool ->
  ?snapshot_every:int ->
  t ->
  (Jim_store.Store.t * Jim_store.Recovery.t, string) result
(** Close the replication stream and recover the accumulated directory
    into a serving store ([fsync] defaults to the standby's own
    setting).  The returned {!Jim_store.Recovery.t} feeds
    {!Jim_server.Service.restore} for bit-identical session replay. *)

val close : t -> unit
