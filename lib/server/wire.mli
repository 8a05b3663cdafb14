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

    The serve loop is a single epoll event-loop thread that owns every
    socket (non-blocking, per-connection reusable read/write buffers)
    and runs every request itself, so thousands of mostly-idle
    connections cost file descriptors, not threads.  It works in
    {e turns}: read what is ready, run the parsed requests in arrival
    order, then write their replies.  A durable node stages each
    request's writes and runs one fsync barrier at the end of the turn,
    before any reply of the turn is written, so pipelined and
    concurrent writes share one barrier (see [Jim_shard.Node]).  A slow
    request holds up every connection for its duration.  The loop also
    runs an optional sweep function periodically (idle-session
    eviction, even when no one is connecting).  Falls back to a
    [select]-backed poller on systems without epoll (see {!Epoll}).
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
  drain_timeout : float;
      (** seconds {!shutdown} lingers for in-flight replies to flush —
          also the bound a failing-over router waits for a dying shard's
          last replies *)
}

val default_config : config
(** [{drain_timeout = 2.0}] *)

val serve_turns :
  ?config:config -> ?sweep_every:float -> ?sweep:(unit -> int) ->
  (string array -> (string * bool) array) -> address -> server
(** The serve loop: bind, listen and start the event-loop thread around
    a turn function.  Each turn it gets every request payload the turn
    read, in arrival order, and returns one reply per payload in the
    same order, each with whether the payload parsed (malformed
    counting); the replies are written only after it returns.  It runs
    on the loop thread and must not raise.  A connection puts at most 8
    pipelined requests into one turn, and they run and are answered in
    request order.  Both framings (line + negotiated binary) work
    against any turn function.  [sweep], when given, runs on the loop
    every [sweep_every] seconds (default 30); an exception from it is
    reported on stderr.  The call returns immediately.  For
    [Tcp (_, 0)] the kernel-chosen port is reflected in
    {!bound_address}.  Raises [Unix.Unix_error] if the bind fails.
    Ignores [SIGPIPE] process-wide (abandoned connections must not kill
    the server). *)

val serve_handler :
  ?config:config -> ?sweep_every:float -> ?sweep:(unit -> int) ->
  (string -> string * bool) -> address -> server
(** {!serve_turns} around a per-payload handler, run on each payload of
    a turn in order.  A handler exception becomes a
    [Bad_request "internal error: ..."] reply. *)

val bound_address : server -> address

val wait : server -> unit
(** Block until the server is shut down (joins the loop thread). *)

val request_shutdown : server -> unit
(** Start {!shutdown} without waiting for it: the loop stops accepting
    and reading and drains, and {!wait} returns once it has.  It never
    blocks, so a signal handler may call it on any thread, the loop's
    included.  Idempotent. *)

val shutdown : server -> unit
(** Stop accepting and reading, wake the event loop (shutting the
    listening socket down wakes it at once), join it, and unlink a
    Unix-domain socket path.  Requests already read still run and their
    replies are flushed, bounded by [drain_timeout]; idle connections
    are dropped.  No thread outlives this call. *)

(** {1 Client} *)

type client

val connect :
  ?retries:int -> ?framing:framing -> address -> (client, string) result
(** [retries] (default 0) extra attempts, 100 ms apart, while the server
    side is still coming up (connection refused / socket not yet bound).
    [framing = Binary] (default [Line]) performs the handshake right
    after connecting and fails with a clear error if the server does not
    speak it. *)

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
