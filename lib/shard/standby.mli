(** The receiving half of journal-streaming replication: a warm standby
    that builds, from the stream, a data directory recovering the same
    sessions as the primary's, and can be promoted through ordinary
    recovery.

    Protocol (driven by {!Repl} on the primary, directly in-process or
    over the wire via the standby serve loop):

    + [install ~gen ~snapshot] — the attach-time baseline: the
      primary's current snapshot text (or [None] for a fresh store).
      Wipes whatever the standby held before.
    + [apply record] — one JREC record: a record from the primary's
      journal at attach time, then each new event in its concrete form
      ({!Repl.send}).  The standby resolves an
      instance reference against its current generation, appends the
      event to its own journal in the form its own generation calls for
      ({!Jim_store.Instances}) — group-committed before the call
      returns, so an acknowledged record is durable here — and folds
      the event through its shadow.
    + [rotate ~gen] — the primary checkpointed: the standby writes its
      {e own} generation-[gen] snapshot from the shadow, rotates its
      journal and drops the old generation.  The record that triggered
      the primary's checkpoint is in the primary's old journal but
      lands in the standby's new one, so the files can differ in
      bytes; each generation recovers the same sessions on both
      sides.
    + [promote] — stop replicating and recover: runs
      {!Jim_store.Store.open_dir} over the accumulated directory, the
      same bit-identical replay path a restarted primary uses.

    Thread-safe: each operation takes the standby's lock. *)

type t

val create : ?io:Jim_store.Io.t -> ?fsync:bool -> dir:string -> unit -> t
(** A standby writing under [dir] (created if needed).  Nothing is
    written until the first {!install}. *)

val dir : t -> string

val install :
  t -> gen:int -> snapshot:string option -> (unit, string) result
(** A baseline snapshot that does not parse, or holds an instance
    reference with no origin earlier in it, is refused before anything
    is wiped. *)

val apply : t -> string -> (int * int, string) result
(** [apply t record] validates, persists and folds one streamed record;
    returns the [(generation, durable record count)] position the ack
    carries.  Errors: a malformed record, an instance reference with no
    origin in the current generation, no installed generation, or a
    local append failure — the primary treats any of these as a broken
    stream (the in-flight event is {e not} acknowledged upstream). *)

val apply_batch : t -> string list -> (int * int, string) result
(** [apply_batch t records] lands one group-commit batch atomically:
    every record is decoded, validated and its instance reference
    resolved first (a bad record rejects the whole batch with no side
    effects; nothing raises), then all payloads
    are appended as one combined journal write under a single fsync
    barrier and folded through the shadow.  Returns the batch's
    high-water [(generation, durable record count)] — the position a
    {!Jim_api.Protocol.Repl_batch} ack carries.  [apply_batch t [r]]
    is equivalent to [apply t r]; the empty batch is a durable no-op. *)

val rotate : t -> gen:int -> (unit, string) result
(** Idempotent: rotating to the current generation is a no-op. *)

val position : t -> int * int
(** Current [(generation, records applied this generation)];
    [(-1, 0)] before the first install. *)

val durable_prefix : t -> int -> int option
(** [durable_prefix t gen] — how many records of generation [gen] are
    durable here; [None] if that generation was never installed.  The
    per-generation durable-prefix map the acceptance criteria name. *)

val session_count : t -> int

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
