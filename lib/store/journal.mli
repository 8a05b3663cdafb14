(** The write-ahead journal: an append-only, length-prefixed,
    CRC-checked binary log of {!Event} payloads.  Every state-mutating
    protocol event is appended — and fsynced — before the server
    acknowledges it, so a SIGKILL at any instant loses at most the
    unacknowledged suffix.

    {1 On-disk format}

    A journal file is a fixed 8-byte file header followed by zero or more
    records, nothing else:

    {v
    file header   8 bytes   the ASCII magic "JIMWAL01" (name + format
                            version; a future format bumps the trailing
                            digits)

    record        13-byte record header + payload:
      magic       4 bytes   ASCII "JREC"
      version     1 byte    0x01
      length      4 bytes   payload byte count, little-endian unsigned
      crc         4 bytes   CRC-32 (IEEE) of the payload, little-endian
      payload     [length] bytes: one positional text line, no newline
                            (Event.to_string; the router log holds
                            Rlog lines); older journals hold one
                            compact JSON object instead
    v}

    Records are assembled in memory and staged; the next durability
    barrier hands everything staged to [write] once, as one {e combined
    append}.  A crash therefore leaves a clean prefix of whole records
    plus at most one partial write at the tail, and everything a torn
    write can damage is by construction unacknowledged — no barrier
    covering it had returned.  {!scan} distinguishes the two failure shapes the
    acceptance criteria name:

    - a {e torn tail} — the file ends inside a record header or payload,
      or the final full-length record fails its CRC (out-of-order block
      writes) — is reported as [Truncated] and safe to cut at the
      reported offset;
    - a {e mid-log corruption} — bad magic/version, a CRC mismatch on a
      record that is {e not} the last, or a length field running past EOF
      while a CRC-valid record still follows it (a torn append is by
      construction the final write, so trailing valid records prove
      in-place damage) — is a hard [`Corrupt] error naming the byte
      offset, because silently dropping acknowledged history is exactly
      what the store exists to prevent.

    {1 Barriers}

    {!write} stages records in memory; {!sync} is the durability
    barrier.  It runs under one mutex held across its syscalls: it
    hands everything staged to [write] as one combined append, then
    fsyncs if any bytes were written since the last fsync, and returns
    only once they are durable.  Barriers are therefore serialised, and
    a caller that queued behind another's barrier may find its records
    already written and synced — it then returns without a syscall.  A
    serving process has a single appender (its event loop), which
    stages a whole turn's records and pays one write and one fsync for
    them.  Ordering is append order: records reach the file in the
    order they were staged.

    {1 Failure poisoning}

    A failed or short [write] can leave a partial record mid-file, and a
    failed [fsync] means dirty pages may already be gone (retrying fsync
    after a failure is unsafe — the PostgreSQL "fsyncgate" lesson).
    Either way the journal flips to a permanent failed state and every
    later {!append}/{!sync} raises {!Poisoned}: the damage stays
    confined to an unacknowledged tail that {!scan} classifies as torn,
    instead of becoming mid-log corruption underneath acknowledged
    records.  The owning store must be reopened (recovering from disk)
    to resume.

    All functions take the I/O through an {!Io.t} ([?io], default
    {!Io.real}), so a fault filesystem can inject every failure above
    deterministically. *)

type t

exception Poisoned
(** Raised by {!append}/{!sync} after an earlier write or fsync failure
    has poisoned the journal. *)

val create : ?fsync:bool -> ?io:Io.t -> string -> t
(** Create (or truncate) a journal file and write the file header.
    [fsync false] (default [true]) turns the durability barrier off —
    for benchmarks and tests only. *)

val open_append : ?fsync:bool -> ?io:Io.t -> string -> (t, string) result
(** Open an existing journal for appending — after {!scan} has validated
    it and any torn tail has been cut with {!truncate}. *)

val append : t -> string -> unit
(** Append one payload as a record; returns after the record is
    fsynced.  Thread-safe.  Raises the underlying I/O error on
    failure (poisoning the journal), or {!Poisoned} if a previous append
    already failed.  [append t p] is {!write} then {!sync}. *)

val append_many : t -> string list -> unit
(** Append a batch of payloads as one combined write under a single
    fsync barrier: all records become durable together and the call
    returns only after that fsync.  Exception behaviour as {!append}.
    This is how a replication standby applies a batch atomically —
    either the whole batch is acknowledged or none of it was. *)

val write : t -> string list -> unit
(** The staging half of {!append_many}: assemble the records in memory
    for the next barrier, without a syscall.  Nothing staged this way
    reaches the file before a {!sync} (or a {!close}).  Raises
    [Invalid_argument] on a closed journal and {!Poisoned} on a
    poisoned one. *)

val sync : t -> unit
(** The durability barrier: writes every record staged so far as one
    combined write and returns once they are durable — one [write] and
    one fsync however many records were staged, and no syscall when an
    earlier barrier already covered them.  Thread-safe; without fsync it
    only writes.  Raises the I/O error (poisoning the journal), or
    {!Poisoned}. *)

type batch_stats = {
  batches : int;  (** combined appends drained *)
  records : int;  (** records those batches carried *)
  max_batch : int;  (** largest batch, in records *)
}

val batch_stats : t -> batch_stats
(** Batch size distribution of combined appends so far: every barrier
    that wrote several records (a barrier over a single record is not
    counted). *)

val failed : t -> bool
(** Has this journal been poisoned by a write/fsync failure? *)

val close : t -> unit

(** {1 Reading} *)

type tail =
  | Complete  (** the file ends exactly on a record boundary *)
  | Truncated of { offset : int; bytes : int }
      (** a torn final record: [bytes] trailing bytes starting at
          [offset] are not a whole record and should be cut *)

val scan :
  ?io:Io.t ->
  string ->
  ((int * string) list * tail, [ `Corrupt of int * string ]) result
(** [scan path] reads every complete record, returning
    [(byte offset, payload)] pairs in file order plus the tail status.
    [`Corrupt (offset, reason)] is a mid-log integrity failure at the
    given byte offset (also used for a garbled file header, at offset 0).
    A file shorter than the file header — a crash during {!create} — is
    [Truncated] at offset 0, not corrupt. *)

val truncate : ?io:Io.t -> string -> int -> (unit, string) result
(** Cut the file at the given byte offset (recovery's response to a
    [Truncated] tail) and fsync it. *)

val header_size : int
(** Size of the file header, bytes (= 8): the offset of the first
    record. *)

(** {1 Record codec and tailing}

    The replication stream (lib/shard) ships journal records over the
    wire as the exact record bytes defined above — header, CRC and
    payload — so a standby can append what it receives and end up with a
    byte-compatible journal it can run ordinary recovery over. *)

val record_header_size : int
(** Size of a record header, bytes (= 13): a record is this plus its
    payload. *)

val encode_record : string -> string
(** [encode_record payload] is the full on-disk record for [payload]:
    magic, version, little-endian length, CRC-32, payload. *)

val decode_record : string -> (string, string) result
(** Inverse of {!encode_record}: validate magic, version, length and CRC
    of exactly one record and return its payload. *)

val record_magic : string
(** The 4-byte ASCII record magic ["JREC"] — how a frame handler tells a
    streamed record from a JSON control message. *)

val tail :
  ?io:Io.t ->
  string ->
  from_offset:int ->
  ((int * string) list * int, string) result
(** [tail path ~from_offset] reads the records whose byte offset is
    [>= from_offset], returning them (offset, payload) in file order
    together with the end offset of the last complete record in the file
    — the [from_offset] a later call should resume from.  A torn tail is
    treated as the end of the durable prefix (not an error); mid-log
    corruption is an error.  This is the streaming iterator a primary
    uses to ship its existing journal to a freshly attached standby. *)
