(* Length-prefixed binary framing for the wire protocol.

   A frame is a 4-byte little-endian payload length followed by the
   payload bytes — the payload is the same one-line JSON the line
   protocol carries, so the Protocol codec is untouched; only the
   delimiting changes (no newline scanning, no trim, payloads may
   contain any byte).

   Negotiation stays in line space so a binary-capable client degrades
   cleanly against anything: the client's first line is the handshake
   request; a binary-capable server switches the connection and answers
   with the ack line, an old server answers with a JSON parse error the
   client can detect. *)

let version = 1
let handshake_request = Printf.sprintf "JIMBIN %d" version
let handshake_ack = handshake_request
let header_size = 4

(* A length field larger than this is garbage, not a frame: refuse it
   instead of waiting forever for bytes that will never come (the
   largest legitimate payload is an inline-CSV request, well under). *)
let max_payload = 64 * 1024 * 1024

let write_length buf ~off n =
  Bytes.set buf off (Char.unsafe_chr (n land 0xff));
  Bytes.set buf (off + 1) (Char.unsafe_chr ((n lsr 8) land 0xff));
  Bytes.set buf (off + 2) (Char.unsafe_chr ((n lsr 16) land 0xff));
  Bytes.set buf (off + 3) (Char.unsafe_chr ((n lsr 24) land 0xff))

let read_length buf ~off =
  let b i = Char.code (Bytes.get buf (off + i)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let to_string payload =
  let n = String.length payload in
  if n > max_payload then
    invalid_arg (Printf.sprintf "Frame.to_string: payload of %d bytes exceeds max" n);
  let buf = Bytes.create (header_size + n) in
  write_length buf ~off:0 n;
  Bytes.blit_string payload 0 buf header_size n;
  Bytes.unsafe_to_string buf

type decoded =
  | Frame of string * int
  | Need_more
  | Junk of string

let decode buf ~off ~len =
  if len < header_size then Need_more
  else begin
    let n = read_length buf ~off in
    if n < 0 || n > max_payload then
      Junk
        (Printf.sprintf "frame length %d out of range (max %d) — not a frame"
           n max_payload)
    else if len < header_size + n then Need_more
    else Frame (Bytes.sub_string buf (off + header_size) n, header_size + n)
  end

let decode_string s ~off =
  let len = String.length s - off in
  if len < 0 then invalid_arg "Frame.decode_string: offset past the end"
  else decode (Bytes.unsafe_of_string s) ~off ~len
