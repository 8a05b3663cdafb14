(** The one node assembler: every serving process — primary, warm
    standby, router — is built here from a {!config}.

    Assembly: open the store, attach replication, build the service,
    restore the recovered sessions and, for {!start}, bind the listener
    with its idle-session sweeper.  Whatever was opened is closed again,
    most recent first, on every error path and by {!stop}.

    One handler chain answers every payload, decoding it once.  It
    routes by tag: [Repl_status] on a replicating primary, the stream
    messages and [Promote] on a standby; everything else goes to the
    {!Jim_server.Service}.  A router relays each turn whole ({!Router.turn}).

    One write path: a durable primary's (or promoted standby's) persist
    hook stages each event ({!Jim_store.Store.stage}), and a barrier —
    one store fsync, then one {!Repl.ship} batch acked by the standby —
    makes them durable.  Over the wire the barrier ends each event-loop
    turn, before any reply of the turn is written; in-process it ends
    each {!handle}, {!handle_line} and {!sweep}.

    A node is owned by the thread that serves it, and holds no lock:
    the building thread owns it until {!start}'s event loop begins, the
    loop owns it while serving, and {!stop} takes it back once the loop
    has been joined.  Requests and sweeps therefore run one at a time.
    Only {!banner} and {!stats_line} may be called from another thread
    while the node serves. *)

type settings = {
  max_sessions : int;
  idle_ttl : float;
      (** seconds; idle sessions are swept every [idle_ttl / 4] s,
          clamped to [0.5, 30] *)
  catalog_max_entries : int;
  crowd : Jim_server.Coordinator.config option;
}
(** How the service is built, by a primary at start and by a standby at
    promotion alike — a session that fails over keeps its crowd. *)

val default_settings : settings
(** 64 sessions, 600 s TTL, 64 catalog entries, no crowd. *)

type role =
  | Primary of {
      data_dir : string option;  (** [None]: sessions live in memory *)
      replicate_to : Repl.target option;
          (** needs [data_dir]; the node closes it exactly once *)
    }
  | Standby of { data_dir : string }
  | Router of {
      data_dir : string option;  (** where [router.wal] lives *)
      vnodes : int;
      shards : Router.upstream list;
    }

type config = {
  role : role;
  listen : Jim_server.Wire.address;  (** {!start} only *)
  wire : Jim_server.Wire.config;
  settings : settings;
  snapshot_every : int;  (** the store a primary or a promotion opens *)
  fsync : bool;
      (** a primary's or standby's store; [false] in benchmarks and tests *)
  io : Jim_store.Io.t;
  catalog : Jim_catalog.Catalog.t option;
      (** shared with other nodes; [None]: a private one *)
}

val config : role -> config
(** [jim serve]'s defaults: {!Jim_server.Wire.default_address},
    {!Jim_server.Wire.default_config}, {!default_settings}, snapshots
    every 1024 records, fsync on, {!Jim_store.Io.real}, a private
    catalog. *)

type t

val create : config -> (t, string) result
(** Assemble in-process, without a socket. *)

val start : config -> (t, string) result
(** {!create}, then bind [config.listen] and serve both framings. *)

val of_standby : config -> Standby.t -> t
(** An in-process standby node around a standby the caller owns and
    closes ([config.role] is ignored). *)

val address : t -> Jim_server.Wire.address option
(** The bound address, port 0 resolved; [None] in-process. *)

val handle : t -> Jim_api.Protocol.request -> Jim_api.Protocol.response
(** The in-process path of a primary or standby (a router raises
    [Invalid_argument]): the request, then the barrier, so its writes
    are durable (and replicated) on return.  Persist-hook and barrier
    exceptions propagate — the fault sweeps crash a node that way. *)

val turn : t -> string array -> (string * bool) array
(** One event-loop turn, the function {!start} serves: every payload in
    order, a reply payload and whether the request parsed for each,
    then one barrier over the turn's writes.  A [Repl_status] on a
    replicating primary reports the records (and their encoded bytes)
    staged so far this turn, which the standby has yet to acknowledge.
    Never raises: an exception, or a failed barrier after a write,
    becomes [Bad_request "internal error: ..."] for the requests that
    wrote; a router relays the turn whole ({!Router.turn}). *)

val handle_line : t -> string -> string * bool
(** One payload as a turn of its own ({!turn}). *)

val sweep : t -> int
(** Evict idle sessions, then the barrier over their [Ended] events;
    returns how many were evicted. *)

val service : t -> Jim_server.Service.t option
(** Always on a primary, after [Promote] on a standby, never on a
    router.  Owned by the thread that serves the node. *)

val banner : t -> string list
(** The start-up lines: address and capacity, then crowd, replication,
    durability or placement details as they apply, as they stood when
    the node was created.  Safe from any thread. *)

val stats_line : t -> string
(** Wire counters, then catalog counters (on a primary or standby) and,
    on a durable primary, the journal's batch counters (records per
    combined write).  Safe from any thread: it reads only modules that
    keep their own locks. *)

val wait : t -> unit
(** Block until the listener shuts down; returns at once in-process. *)

val stop : t -> unit
(** Shut the listener down and close everything, most recent first.
    Idempotent. *)
