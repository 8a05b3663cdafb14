(** The sending half of journal-streaming replication: a primary's
    attachment to one warm {!Standby}, called from its persist hook.

    Ack discipline (the semi-synchronous contract the failover sweep
    asserts): {!send} is called {e after} {!Jim_store.Store.record} has
    group-committed the event locally, and returns only once the
    standby has acknowledged — which it does only after its own group
    commit.  A send failure raises {!Replication_failed}, which the
    wire layer converts into an error reply, so the client is never
    acked an event the standby does not durably hold.

    Batching: concurrent {!send}s coalesce.  The first sender becomes
    the shipping leader; records queued behind it while its round-trip
    is in flight are drained into the next batch and shipped as one
    {!Jim_api.Protocol.Repl_batch} message, which the standby lands
    atomically (one combined append, one fsync) and acks with its
    high-water mark.  Every waiter still blocks until its record's
    batch is acked — the durability contract is unchanged; only the
    number of round-trips shrinks. *)

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

val send : t -> Jim_store.Event.t -> unit
(** Stream one just-recorded event; returns once the standby has
    durably acked the batch holding it.  Rotates the standby first if
    the store checkpointed since the last batch.  Raises
    {!Replication_failed} on any stream error.  Thread-safe: concurrent
    sends batch behind a single shipping leader, in record order. *)

val position : t -> int * int
(** Last acked [(generation, record count)]. *)

val lag : t -> int * int
(** Current replication lag as [(records, bytes)]: records accepted
    into the stream (queued or in a batch in flight) that the standby
    has not yet acknowledged.  [(0, 0)] when the stream is idle — the
    semi-synchronous ack gate keeps the lag bounded by the in-flight
    batch.  This is what a primary reports in its
    {!Jim_api.Protocol.Repl_lag} reply. *)

val describe : t -> string
val close : t -> unit
