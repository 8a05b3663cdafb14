(** Length-prefixed binary framing: the fast alternative to
    line-delimited JSON, negotiated per connection.

    Frame layout: 4-byte little-endian payload length, then the payload
    bytes — the same one-line JSON the line protocol carries, so
    {!Jim_api.Protocol} is unchanged and a session driven over frames is
    bit-identical to one driven over lines.

    Negotiation: a client that wants binary sends {!handshake_request}
    as its first {e line}; a binary-capable server replies with the
    {!handshake_ack} line and both sides switch to frames.  An old
    server replies with a JSON parse error instead, which the client can
    detect and fall back on — negotiation never breaks a line-only
    peer. *)

val version : int
val handshake_request : string
(** ["JIMBIN 1"] (sent as a line, newline-terminated on the wire). *)

val handshake_ack : string

val header_size : int
(** Bytes of length prefix per frame (4). *)

val max_payload : int
(** Upper bound on a payload; a length field beyond it decodes as
    {!Junk} rather than stalling the read waiting for impossible
    bytes. *)

val write_length : Bytes.t -> off:int -> int -> unit
(** Write a payload length as the {!header_size}-byte header at [off],
    in place (no allocation, no {!max_payload} check). *)

val read_length : Bytes.t -> off:int -> int
(** The payload length in the header at [off]: in [0, 2{^32}), so a
    caller checks it against {!max_payload}. *)

val to_string : string -> string
(** [to_string p] is one whole encoded frame.  Raises [Invalid_argument]
    past {!max_payload}. *)

type decoded =
  | Frame of string * int
      (** payload, total bytes consumed (header + payload) *)
  | Need_more  (** a prefix of a valid frame: read more, never an error *)
  | Junk of string  (** not a frame; the connection is unrecoverable *)

val decode : Bytes.t -> off:int -> len:int -> decoded
(** Incremental decode of the [len] bytes at [off].  Total: every input
    yields [Frame], [Need_more] or [Junk] — never an exception. *)

val decode_string : string -> off:int -> decoded
(** {!decode} over a string tail (tests, offline tooling). *)
