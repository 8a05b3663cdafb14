(** A pure transport: request and response payloads over a socket, in
    either of two framings, around any payload handler.  It knows
    nothing of sessions — [Jim_shard.Node] assembles the handler.

    Every connection starts in {e line} framing — one request payload
    per line in, one response payload per line out, byte-compatible with
    every earlier version of this protocol.  A client may send the
    handshake line [Frame.handshake_request] before its first request;
    the server acks with the same line and both sides switch to {e
    binary} framing — a 4-byte little-endian length prefix before each
    payload (see {!Frame}).  Old servers reply to the handshake with a
    JSON parse error, which a new client reports cleanly — negotiation
    never breaks a line-only peer.

    The serve loop is a single epoll event-loop thread owning every
    socket (non-blocking, per-connection reuseable read/write buffers)
    plus a worker pool that only runs the handler — so thousands of
    mostly-idle connections cost file descriptors, not threads.  Falls
    back to a [select]-backed poller on systems without epoll (see
    {!Epoll}).  An optional housekeeping thread runs a sweep function
    periodically (idle-session eviction, even when no one is
    connecting).
    Wire-level counters (accepted / active / failed connections,
    malformed payloads, bytes in/out) are recorded in {!Netstats}. *)

type address =
  | Tcp of string * int  (** host, port (port 0 lets the kernel pick) *)
  | Unix_path of string

val default_address : address
(** [unix:/tmp/jim.sock], where nodes listen and clients dial by default. *)

val address_to_string : address -> string
(** ["host:port"], ["[v6host]:port"] for hosts containing [':'], or
    ["unix:/path"]. *)

val address_of_string : string -> (address, string) result
(** Inverse of {!address_to_string}: ["unix:PATH"], ["HOST:PORT"] or
    ["[HOST]:PORT"].  IPv6 literals must be bracketed — a bare
    multi-colon spec like ["::1:9090"] is rejected as ambiguous rather
    than silently split at the last colon. *)

val sockaddr_of : address -> Unix.sockaddr
(** May raise [Failure] for an unresolvable host. *)

val socket_for : address -> Unix.file_descr
(** A fresh unconnected stream socket of the right family — for
    components (e.g. {!Chaos}) that listen on an [address] without being
    a {!server}. *)

(** {1 Framing} *)

type framing =
  | Line    (** newline-delimited JSON; the universal default *)
  | Binary  (** length-prefixed JSON, negotiated via {!Frame} handshake *)

(** {1 Server} *)

type server

type config = {
  threads : int;  (** worker pool size *)
  backlog : int;  (** listen backlog *)
  drain_timeout : float;
      (** seconds {!shutdown} lingers for in-flight replies to flush —
          also the bound a failing-over router waits for a dying shard's
          last replies *)
  max_pipeline : int;
      (** requests a single connection may have in flight at once
          (clamped to at least 1).  Replies always leave in request
          order — workers may finish out of order, a per-connection
          reorder buffer fixes it — so a strictly request/reply client
          sees no change, while a pipelining client (see {!send_line} /
          {!recv_line}) overlaps up to this many requests.  Requests
          pipelined on one connection may {e execute} concurrently, so a
          client multiplexing sessions must keep at most one in-flight
          request per session (exactly what [jim client --pipeline]
          does). *)
}

val default_config : config
(** [{threads = 16; backlog = 64; drain_timeout = 2.0; max_pipeline = 8}] *)

val serve_handler :
  ?config:config -> ?sweep_every:float -> ?sweep:(unit -> int) ->
  (string -> string * bool) -> address -> server
(** The generic serve loop: bind, listen and start the event loop plus
    worker pool around an arbitrary payload handler — one request
    payload in, one response payload out, plus whether the payload
    parsed (malformed counting).  Both framings (line + negotiated
    binary) work against any handler.  [sweep], when given, runs every
    [sweep_every] seconds (default 30) on a housekeeping thread.  The
    call returns immediately.  For [Tcp (_, 0)] the kernel-chosen port is
    reflected in {!bound_address}.  Raises [Unix.Unix_error] if the bind
    fails.  Ignores [SIGPIPE] process-wide (abandoned connections must
    not kill the server). *)

val bound_address : server -> address

val wait : server -> unit
(** Block until the server is shut down (joins the pool). *)

val shutdown : server -> unit
(** Stop accepting, wake the event loop and the idle-session sweeper
    (both sleep on self-pipes so they can be interrupted instantly),
    join every thread, and unlink a Unix-domain socket path.  Replies
    already being computed are flushed (bounded by a short drain
    deadline); idle connections are dropped.  No thread outlives this
    call. *)

(** {1 Client} *)

type client

val connect :
  ?retries:int -> ?framing:framing -> address -> (client, string) result
(** [retries] (default 0) extra attempts, 100 ms apart, while the server
    side is still coming up (connection refused / socket not yet bound).
    [framing = Binary] (default [Line]) performs the handshake right
    after connecting and fails with a clear error if the server does not
    speak it. *)

val client_framing : client -> framing

val set_timeout : client -> float -> unit
(** Receive timeout in seconds: a reply overdue past it makes the next
    {!call_line} fail instead of blocking forever.  Best-effort (ignored
    where the socket option is unsupported). *)

val call_line : client -> string -> (string, string) result
(** Send one request payload, read one response payload back — framed
    per the connection's negotiated framing.  Equivalent to {!send_line}
    followed by {!recv_line}. *)

val send_line : ?flush:bool -> client -> string -> (unit, string) result
(** Send one request payload without waiting for the reply — the
    sending half of a pipelined exchange.  [flush] (default [true])
    false buffers the payload so a burst of sends leaves in one
    segment; {!recv_line} flushes before reading, so a buffered send
    can never deadlock a waiting client. *)

val recv_line : client -> (string, string) result
(** Read the next response payload.  The server delivers replies in
    request order, so the [k]-th [recv_line] answers the [k]-th
    {!send_line}. *)

val call :
  client -> Jim_api.Protocol.request ->
  (Jim_api.Protocol.response, string) result

val close : client -> unit
