(** Process-wide wire-layer counters: connections accepted / active /
    failed, malformed requests, requests served, negotiated-binary
    connections, and bytes in / out of the serve loop.  The network-side
    sibling of {!Jim_core.Metrics} — atomic, updated by every event
    loop in the process, read by [jim serve] stats reporting and the
    wire bench. *)

type snapshot = {
  accepted : int;  (** connections ever accepted *)
  active : int;    (** accepted - closed *)
  closed : int;
  failed : int;
      (** connections torn down by an I/O error or a framing violation,
          as opposed to a clean peer close *)
  malformed : int;
      (** request payloads the protocol layer could not parse, plus
          binary-framing violations *)
  requests : int;  (** request payloads handed to a turn *)
  binary_conns : int;  (** connections that negotiated binary framing *)
  bytes_in : int;
  bytes_out : int;
  writes_coalesced : int;
      (** responses that rode a flush an earlier response triggered —
          a flush carrying [n] responses counts [n - 1] here *)
  flushes : int;  (** response flush attempts (socket write rounds) *)
  pipelined_depth_max : int;
      (** high-water mark of requests one connection put into a single
          loop turn — 1 for strictly request/reply clients, up to the
          server's pipeline bound for pipelining ones *)
}

val snapshot : unit -> snapshot
val reset : unit -> unit

val to_string : snapshot -> string

(** {1 Recording (called by the wire loop)} *)

val record_accept : unit -> unit
val record_close : unit -> unit
val record_failure : unit -> unit
val record_malformed : unit -> unit
val record_read : int -> unit
val record_write : int -> unit
val record_binary : unit -> unit
val record_request : unit -> unit
val record_flush : unit -> unit

val record_coalesced : int -> unit
(** [record_coalesced n] — [n] responses shared a flush with an earlier
    one ([n = responses in the flush - 1]; no-op for [n <= 0]). *)

val record_depth : int -> unit
(** Raise the pipelined-depth high-water mark to at least this value. *)
