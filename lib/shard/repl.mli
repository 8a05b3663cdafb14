(** The sending half of journal-streaming replication: a primary's
    attachment to one warm {!Standby}, driven by its durability
    barrier.

    Ack discipline (the semi-synchronous contract the failover sweep
    asserts): records are shipped only {e after}
    {!Jim_store.Store.sync} has made them locally durable, and {!ship}
    returns only once the standby has acknowledged — which it does only
    after its own fsync.  A serving node stages a whole event-loop
    turn's events, syncs the store once, then ships them in one call,
    before any reply of the turn leaves.  A ship failure raises
    {!Replication_failed}, which the node turns into error replies, so
    the client is never acked an event the standby does not durably
    hold.

    Batching: one {!ship} call's records travel as one
    {!Jim_api.Protocol.Repl_batch} per store generation, which the
    standby lands atomically (one combined append, one fsync) and acks
    with its high-water mark.

    A sender is owned by the thread that serves its node: {!attach}
    runs on the building thread before serving starts, every later
    call on the node's event loop, so shipments never overlap. *)

type target = {
  describe : string;
  install : gen:int -> snapshot:string option -> (unit, string) result;
  rotate : gen:int -> (unit, string) result;
  append_batch : string list -> (int * int, string) result;
      (** land one batch of encoded JREC records atomically; the
          returned position is the batch's high-water mark *)
  close : unit -> unit;
}
(** How the sender talks to a standby — a record of closures so the
    same sender drives an in-process {!Standby} (tests, the fault
    sweep) or a remote one behind {!Front}'s connection pool. *)

val of_standby : Standby.t -> target

exception Replication_failed of string

type t

val attach : Jim_store.Store.t -> target -> (t, string) result
(** Ship the baseline and connect: installs the store's current
    snapshot (if any) on the target, streams every record already in
    the live journal in chunked batches, and returns the handle whose
    {!send} keeps the stream current.  Call before the service starts
    accepting requests, with the store quiescent. *)

val ship : t -> (int * string) list -> unit
(** Stream already-durable journal payloads, as {!Jim_store.Store.stage}
    returned them, each tagged with the store generation it was
    journaled in, in journal order; returns once the standby has durably
    acked them all.  Attach and steady state ship the same form: the
    bytes the store wrote.  The standby is rotated into a
    generation before that generation's first batch, so a checkpoint
    between two shipped events falls at the same record on both sides.
    Raises {!Replication_failed} on any stream error; a failed batch
    stops the shipment. *)

val send : t -> Jim_store.Event.t -> unit
(** [ship] of one just-recorded event's concrete line, in the store's
    current generation.  A start on an inline instance ships its text
    even where the store journaled a reference; the standby's store
    still writes the reference.  A serving node ships the staged
    payloads with {!ship} instead. *)

val position : t -> int * int
(** Last acked [(generation, record count)]. *)

val lag : t -> int * int
(** [(records, bytes)] of the shipment in flight: nonzero only while
    {!ship} runs (a target's closures see it), [(0, 0)] to every other
    caller, because the semi-synchronous ack gate leaves nothing
    unacknowledged once [ship] returns.  A node answers
    {!Jim_api.Protocol.Repl_status} from the events its current turn
    has staged for the next shipment instead. *)

val describe : t -> string
val close : t -> unit
