(** Wire plumbing for the sharded tier: pooled connections from the
    router to its shards, upstream construction from addresses, the
    standby serve node, and the wire-side replication target a primary
    streams through.

    All pools default to binary framing ([JIMBIN 1]) — the replication
    stream ships raw JREC record bytes, which only binary frames carry
    — and dial lazily with retries, so process start order does not
    matter. *)

val wire_upstream :
  name:string ->
  primary:Jim_server.Wire.address ->
  ?standby:Jim_server.Wire.address ->
  unit ->
  Router.upstream
(** A router upstream forwarding to [primary] through a pool.  With
    [standby], the upstream carries a promote closure: dial the
    standby, send [Promote] (idempotent on the standby side), and
    return a pooled call path to it — the router swaps this in on
    failover. *)

(** {1 The standby serve node} *)

type standby_node

val standby_node : Standby.t -> standby_node
(** {!Node.of_standby} with {!Node.config}'s defaults. *)

val handle_line : standby_node -> string -> string * bool
(** {!Node.handle_line}. *)

val sweep : standby_node -> int
(** {!Node.sweep}: 0 until promoted. *)

(** {1 Wire replication target} *)

val wire_target :
  name:string -> Jim_server.Wire.address -> Repl.target
(** The sending half against a remote standby: install/rotate/status as
    protocol messages, records as raw binary frames, all on one pooled
    binary connection.  Plug into {!Repl.attach}. *)
