(** The sharded tier's front process: speaks the ordinary v1 protocol
    to clients and places every session on one of N shard upstreams
    via the consistent-hash {!Ring}.

    Placement: [Start_session] allocates a router-wide session id and
    pins it to the shard owning {!Ring.session_key} — or
    {!Ring.fingerprint_key} for [Catalog] sources, so every session on
    a cataloged instance (and every [Register_instance]) lands on the
    one shard holding that catalog entry.  The start is forwarded as
    the shard-internal [Start_pinned] so the shard adopts the router's
    id; every later request routes by its pinned placement.

    Durability: placements, ring membership and promotions are
    journaled (JREC records of {!Rlog} lines in [DIR/router.wal]), and
    a placement is journaled {e before} the start is forwarded — so
    routing survives a router restart with at worst a dead placement,
    never an unroutable live session.

    Turns: {!turn} decodes and places every payload of a turn first,
    then relays each shard's share as one pipelined batch (a batch of
    one through [call]), so the shard serves it in one or two of its
    own turns and the writes share its barrier.  The turn's [Placed]
    entries are made durable by one log sync before any start leaves;
    its [Released] entries by one more before the replies return.

    Failover: a transport failure promotes the upstream's standby (its
    [promote] closure) and journals it once.  Replies that arrived
    before the break stand; of the requests the break left unanswered,
    non-mutating ones retry transparently on the standby, mutating ones
    answer [{!Jim_api.Protocol.Shard_unavailable}] (at-most-once — the
    dead primary may have acked them), and a [Start_session] is retried
    once with a fresh id. *)

type upstream = {
  name : string;
  mutable call : string -> (string, string) result;
      (** one request line in, one reply line out; [Error] means the
          transport failed (connect/read/write), not a protocol-level
          [Failed] reply *)
  mutable calls : string array -> (string, string) result array;
      (** a batch in, one result per request, in order; the replies that
          arrived before a transport failure are [Ok], the rest [Error] *)
  promote :
    (unit -> (string array -> (string, string) result array, string) result)
    option;
      (** promote this shard's standby and return the replacement batch
          path (its one-request case becomes [call]); [None] when the
          shard has no standby *)
  mutable promoted : bool;
  ulock : Mutex.t;
}

val batch_upstream :
  name:string ->
  ?promote:
    (unit -> (string array -> (string, string) result array, string) result) ->
  (string array -> (string, string) result array) ->
  upstream
(** An upstream over a batch path; [call] is its one-request case. *)

val upstream :
  name:string ->
  ?promote:(unit -> ((string -> (string, string) result), string) result) ->
  (string -> (string, string) result) ->
  upstream
(** An upstream over a one-request path: its batches go one request at a
    time, and nothing more is sent once the transport has failed. *)

type t

val create :
  ?io:Jim_store.Io.t ->
  ?dir:string ->
  ?vnodes:int ->
  shards:upstream list ->
  unit ->
  (t, string) result
(** A router over the given upstreams.  With [dir], the router log is
    replayed (rebuilding placements, membership and promotions — a
    journaled promotion re-points that upstream at its standby before
    serving) and kept appended; without it, routing state is
    in-memory only.  Membership changes between restarts are
    reconciled into the log as add/remove deltas. *)

val turn : t -> string array -> (string * bool) array
(** One turn: a [(reply, parsed)] per payload, in order — the turn
    function {!Jim_server.Wire.serve_turns} takes.  Never raises. *)

val handle_line : t -> string -> string * bool
(** A turn of one payload, pluggable into
    [Jim_server.Wire.serve_handler]. *)

(** {1 Reply tags}

    The replies the router acts on, read by prefix instead of a full
    decode. *)

val started_prefix : string
(** A shard's [Started]: any other reply to a start releases its pin. *)

val ended_reply : string
(** [Ended], whole: an [End_session] answered with it releases the pin. *)

val unknown_session_prefix : string
(** A [Failed (Unknown_session _)]: the shard evicted the session or
    never started it, so the pin is released. *)

val placement : t -> int -> string option
(** Which shard a session id is pinned to (the determinism tests
    compare these across a restart). *)

val session_count : t -> int
val close : t -> unit
