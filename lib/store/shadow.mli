(** The store's in-memory mirror of durable session state: enough of
    each live session (source, strategy, seed, fingerprint, transcript)
    to write the next snapshot without consulting the engine, plus the
    current generation's {!Instances} table.

    One instance lives inside every {!Store.t} (folded forward on each
    recorded event so checkpoints are O(live state), not O(journal)).
    A replication standby is a store as well, so it folds the streamed
    records through the same code.

    Events folded in are always concrete; {!Instances.compact_event}
    against {!instances} gives the form the generation's journal holds.

    Not thread-safe: the store serialises access under its lock. *)

type t

val create : unit -> t
(** Empty shadow: no sessions, [next_id] 1. *)

val apply : t -> Event.t -> unit
(** Fold one concrete event forward, once its record is in the
    journal: [Started] registers the session (and bumps [next_id] past
    its id) and its inline instance enters the table if new,
    [Answered]/[Undone] grow/shrink its transcript, [Ended] drops it.
    Events for unknown sessions are ignored — the journal's write order
    already tolerates a racy answer/undo after [Ended] (see
    {!Recovery.load}). *)

val seed :
  t -> next_id:int -> instances:Instances.t -> Snapshot.session list -> unit
(** Reset to exactly a recovered generation: its live sessions and the
    instance table its files hold.  [next_id] is still bumped past
    every seeded session id. *)

val rotated : t -> Snapshot.t -> unit
(** A checkpoint replaced the generation's files with this snapshot
    (just taken from the shadow): the instance table becomes the
    snapshot's ({!Snapshot.instances}). *)

val instances : t -> Instances.t

val snapshot : t -> Snapshot.t
(** The current state as a snapshot (sessions in ascending id order —
    the deterministic form {!Snapshot.write} persists). *)
