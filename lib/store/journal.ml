let file_magic = "JIMWAL01"
let header_size = String.length file_magic
let record_magic = "JREC"
let record_version = '\001'
let record_header_size = 4 + 1 + 4 + 4

type batch_stats = {
  batches : int;
  records : int;
  max_batch : int;
  by_size : int array;
}

type t = {
  file : Io.file;
  fsync : bool;
  window : float;
      (* commit-window dally, seconds; [> 0] switches barriers to the
         windowed leader below, which writes outside the lock *)
  window_bytes : int;  (* byte budget: stop dallying once staged past it *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable written : int;  (* bytes handed to [write] so far *)
  mutable synced : int;  (* bytes known covered by an fsync *)
  mutable staged : int;  (* logical end: [written] plus pending bytes *)
  pending : Buffer.t;
      (* records staged but not yet written; the next barrier drains
         the whole buffer as one combined [write] *)
  mutable pending_records : int;  (* records inside [pending] *)
  mutable waiters : int;  (* appenders parked on the fsync barrier *)
  mutable syncing : bool;  (* a leader's write+fsync is in flight *)
  mutable failed : bool;  (* poisoned by a write/fsync failure *)
  mutable closed : bool;
  mutable scratch : Bytes.t;
      (* record assembly buffer, reused across appends; only touched
         under [lock] and only before the bytes reach [write] or
         [pending], so a leader releasing the lock for its fsync cannot
         race it *)
  mutable batches : int;  (* combined appends drained *)
  mutable batched_records : int;  (* records those batches carried *)
  mutable max_batch : int;  (* largest batch, in records *)
  by_size : int array;
      (* batch size histogram: bucket [i] counts batches of
         [2^i .. 2^(i+1) - 1] records, last bucket open-ended *)
}

exception Poisoned

let () =
  Printexc.register_printer (function
    | Poisoned ->
      Some
        "Jim_store.Journal.Poisoned (appends refused after an earlier \
         write/fsync failure)"
    | _ -> None)

let put_le32 buf off v =
  Bytes.set buf off (Char.chr (v land 0xff));
  Bytes.set buf (off + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set buf (off + 3) (Char.chr ((v lsr 24) land 0xff))

let get_le32 buf off =
  Char.code (Bytes.get buf off)
  lor (Char.code (Bytes.get buf (off + 1)) lsl 8)
  lor (Char.code (Bytes.get buf (off + 2)) lsl 16)
  lor (Char.code (Bytes.get buf (off + 3)) lsl 24)

let write_all (file : Io.file) buf off len =
  let stop = off + len in
  let rec go off = if off < stop then go (off + file.Io.write buf off (stop - off)) in
  go off

let of_file ~fsync ~window ~window_bytes ~written file =
  {
    file;
    fsync;
    window;
    window_bytes;
    lock = Mutex.create ();
    cond = Condition.create ();
    written;
    synced = written;
    staged = written;
    pending = Buffer.create 4096;
    pending_records = 0;
    waiters = 0;
    syncing = false;
    failed = false;
    closed = false;
    scratch = Bytes.create 512;
    batches = 0;
    batched_records = 0;
    max_batch = 0;
    by_size = Array.make 8 0;
  }

(* Staged (combined-write) appends only make sense when a durability
   barrier exists to amortise: without fsync there is nothing to wait
   for, so records go straight to [write] as before. *)
let windowed t = t.fsync && t.window > 0.

let create ?(fsync = true) ?(window = 0.) ?(window_bytes = 256 * 1024)
    ?(io = Io.real) path =
  let file = io.Io.create path in
  write_all file (Bytes.of_string file_magic) 0 header_size;
  if fsync then file.Io.fsync ();
  of_file ~fsync ~window ~window_bytes ~written:header_size file

let open_append ?(fsync = true) ?(window = 0.) ?(window_bytes = 256 * 1024)
    ?(io = Io.real) path =
  (* Validate the header before taking an append handle; [Recovery.load]
     has normally just scanned the file, so this re-read is cheap and
     only happens at startup. *)
  match io.Io.read_file path with
  | Error m -> Error (Printf.sprintf "%s: %s" path m)
  | Ok data ->
    if String.length data < header_size then
      Error (Printf.sprintf "%s: too short for a journal file header" path)
    else if String.sub data 0 header_size <> file_magic then
      Error (Printf.sprintf "%s: bad journal file magic" path)
    else (
      match io.Io.open_append path with
      | Error m -> Error (Printf.sprintf "%s: %s" path m)
      | Ok (file, size) -> Ok (of_file ~fsync ~window ~window_bytes ~written:size file))

(* Assemble the record into [t.scratch] (growing it if the payload needs
   more room); returns the record's total length.  Caller holds the
   lock. *)
let record_into t payload =
  let plen = String.length payload in
  let total = record_header_size + plen in
  if Bytes.length t.scratch < total then
    t.scratch <- Bytes.create (max total (2 * Bytes.length t.scratch));
  let buf = t.scratch in
  Bytes.blit_string record_magic 0 buf 0 4;
  Bytes.set buf 4 record_version;
  put_le32 buf 5 plen;
  put_le32 buf 9
    (Int32.to_int
       (Int32.logand (Crc32.digest_string payload) 0xffffffffl)
    land 0xffffffff);
  Bytes.blit_string payload 0 buf record_header_size plen;
  total

let note_batch t n =
  t.batches <- t.batches + 1;
  t.batched_records <- t.batched_records + n;
  if n > t.max_batch then t.max_batch <- n;
  let last = Array.length t.by_size - 1 in
  let rec bucket i n = if n <= 1 || i >= last then i else bucket (i + 1) (n / 2) in
  let b = bucket 0 n in
  t.by_size.(b) <- t.by_size.(b) + 1

let batch_stats t =
  Mutex.lock t.lock;
  let s : batch_stats =
    {
      batches = t.batches;
      records = t.batched_records;
      max_batch = t.max_batch;
      by_size = Array.copy t.by_size;
    }
  in
  Mutex.unlock t.lock;
  s

(* Group commit, immediate-write flavour: the records are already on
   file; wait until some leader's fsync barrier covers [ticket].  The first
   waiter whose bytes are not yet durable becomes the leader, releases
   the lock for the (slow) fsync, and broadcasts the new high-water
   mark; appenders that wrote while the leader was syncing ride the next
   round.  Caller holds the lock; returns with it held (released on
   raise).

   Poisoning: a failed or short write can leave a partial record
   mid-file, and a failed fsync leaves the kernel free to have dropped
   dirty pages we can no longer re-sync (the PostgreSQL "fsyncgate"
   lesson: retrying fsync after a failure is not safe).  Either way the
   only safe continuation is none at all — the journal flips to [failed]
   and every later append raises {!Poisoned}, so the damage stays
   confined to the (unacknowledged) tail where recovery can cut it,
   instead of becoming mid-log corruption under acknowledged records. *)
let rec await_immediate t ticket =
  if t.synced < ticket then begin
    if t.failed then begin
      Mutex.unlock t.lock;
      raise Poisoned
    end;
    if t.syncing then begin
      Condition.wait t.cond t.lock;
      await_immediate t ticket
    end
    else begin
      t.syncing <- true;
      let barrier = t.written in
      Mutex.unlock t.lock;
      let result = try Ok (t.file.Io.fsync ()) with exn -> Error exn in
      Mutex.lock t.lock;
      (* Reset + broadcast even on failure, or every waiting appender
         blocks forever on a leader that will never report back. *)
      t.syncing <- false;
      (match result with
      | Ok () -> t.synced <- max t.synced barrier
      | Error _ -> t.failed <- true);
      Condition.broadcast t.cond;
      match result with
      | Ok () -> await_immediate t ticket
      | Error exn ->
        Mutex.unlock t.lock;
        raise exn
    end
  end

(* Group commit, staged (commit-window) flavour: records accumulate in
   [t.pending] and the leader drains the whole buffer as one combined
   [write] followed by one fsync — a crash can tear only the tail of
   that single write, so recovery still sees a clean prefix of whole
   records plus at most one partial batch, all of it unacknowledged.

   The adaptive part: a leader that sees other appenders in flight
   dallies for the commit window before draining, letting their records
   join its batch; an uncontended leader (or one already past the byte
   budget) drains immediately, so a single client never pays the window
   as latency.  Caller holds the lock with [t.waiters] counting it;
   returns with the lock held and the count dropped (ditto on raise). *)
let rec await_windowed t ticket =
  if t.synced >= ticket then t.waiters <- t.waiters - 1
  else if t.failed then begin
    t.waiters <- t.waiters - 1;
    Mutex.unlock t.lock;
    raise Poisoned
  end
  else if t.syncing then begin
    Condition.wait t.cond t.lock;
    await_windowed t ticket
  end
  else begin
    t.syncing <- true;
    if t.waiters > 1 && Buffer.length t.pending < t.window_bytes then begin
      Mutex.unlock t.lock;
      Thread.delay t.window;
      Mutex.lock t.lock
    end;
    let batch = Buffer.to_bytes t.pending in
    let nrec = t.pending_records in
    Buffer.clear t.pending;
    t.pending_records <- 0;
    let barrier = t.staged in
    Mutex.unlock t.lock;
    let result =
      try
        write_all t.file batch 0 (Bytes.length batch);
        t.file.Io.fsync ();
        Ok ()
      with exn -> Error exn
    in
    Mutex.lock t.lock;
    t.syncing <- false;
    (match result with
    | Ok () ->
      t.written <- barrier;
      t.synced <- max t.synced barrier;
      if nrec > 0 then note_batch t nrec
    | Error _ -> t.failed <- true);
    Condition.broadcast t.cond;
    match result with
    | Ok () -> await_windowed t ticket
    | Error exn ->
      t.waiters <- t.waiters - 1;
      Mutex.unlock t.lock;
      raise exn
  end

(* Caller holds the lock.  Stage one record into [t.pending]. *)
let stage t payload =
  let total = record_into t payload in
  Buffer.add_subbytes t.pending t.scratch 0 total;
  t.staged <- t.staged + total;
  t.pending_records <- t.pending_records + 1

(* Caller holds the lock with no windowed leader in flight.  Push the
   staged records to the file as one combined write, poisoning on
   failure.  A write of several records counts as a batch. *)
let flush_pending_locked t =
  if Buffer.length t.pending > 0 then begin
    let batch = Buffer.to_bytes t.pending in
    let nrec = t.pending_records in
    Buffer.clear t.pending;
    t.pending_records <- 0;
    match write_all t.file batch 0 (Bytes.length batch) with
    | () ->
      t.written <- t.written + Bytes.length batch;
      if nrec > 1 then note_batch t nrec
    | exception exn ->
      t.failed <- true;
      Condition.broadcast t.cond;
      raise exn
  end

let check_open t ~op =
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg (op ^ ": closed")
  end;
  if t.failed then begin
    Mutex.unlock t.lock;
    raise Poisoned
  end

(* Caller holds the lock.  Wait until a barrier covers every record
   staged so far: the windowed leader writes and syncs them; otherwise
   they go down as one combined write here and then share an fsync.
   Returns with the lock held (released on raise). *)
let await t =
  if windowed t then begin
    t.waiters <- t.waiters + 1;
    await_windowed t t.staged
  end
  else begin
    (try flush_pending_locked t
     with exn ->
       Mutex.unlock t.lock;
       raise exn);
    if t.fsync then await_immediate t t.written
  end

let write t payloads =
  if payloads <> [] then begin
    Mutex.lock t.lock;
    check_open t ~op:"Journal.write";
    List.iter (stage t) payloads;
    Mutex.unlock t.lock
  end

let sync t =
  Mutex.lock t.lock;
  check_open t ~op:"Journal.sync";
  await t;
  Mutex.unlock t.lock

let append_many t payloads =
  if payloads <> [] then begin
    Mutex.lock t.lock;
    check_open t ~op:"Journal.append_many";
    List.iter (stage t) payloads;
    await t;
    Mutex.unlock t.lock
  end

let append t payload = append_many t [ payload ]

let failed t =
  Mutex.lock t.lock;
  let f = t.failed in
  Mutex.unlock t.lock;
  f

let close t =
  Mutex.lock t.lock;
  if not t.closed then begin
    while t.syncing do
      Condition.wait t.cond t.lock
    done;
    t.closed <- true;
    if not t.failed then
      (try flush_pending_locked t with _ -> t.failed <- true);
    if t.fsync && not t.failed then
      (try t.file.Io.fsync () with _ -> t.failed <- true);
    (try t.file.Io.close () with _ -> ())
  end;
  Mutex.unlock t.lock

type tail = Complete | Truncated of { offset : int; bytes : int }

(* Is there a complete, CRC-valid record starting at [q]?  Used to tell
   a torn tail from a corrupted length field: a torn append is by
   construction the final write, so any valid record *after* the suspect
   one proves the log was damaged in place, not truncated. *)
let valid_record_at data size q =
  q + record_header_size <= size
  && String.sub data q 4 = record_magic
  && data.[q + 4] = record_version
  &&
  let buf = Bytes.unsafe_of_string data in
  let plen = get_le32 buf (q + 5) in
  let crc = get_le32 buf (q + 9) in
  plen >= 0
  && q + record_header_size + plen <= size
  && Int32.to_int (Int32.logand (Crc32.digest_string (String.sub data (q + record_header_size) plen)) 0xffffffffl)
     land 0xffffffff
     = crc

let record_follows data size pos =
  let rec go q =
    q + record_header_size <= size
    && (valid_record_at data size q || go (q + 1))
  in
  go (pos + 1)

let scan ?(io = Io.real) path =
  match io.Io.read_file path with
  | Error msg -> Error (`Corrupt (0, msg))
  | Ok data ->
    let size = String.length data in
    if size < header_size then
      (* A crash during [create] can leave a partial file header: torn,
         and necessarily empty of acknowledged records. *)
      Ok ([], Truncated { offset = 0; bytes = size })
    else if String.sub data 0 header_size <> file_magic then
      Error (`Corrupt (0, "bad or missing journal file magic"))
    else begin
      let buf = Bytes.unsafe_of_string data in
      let rec go pos acc =
        if pos = size then Ok (List.rev acc, Complete)
        else if size - pos < record_header_size then
          Ok (List.rev acc, Truncated { offset = pos; bytes = size - pos })
        else if
          String.sub data pos 4 <> record_magic
          || data.[pos + 4] <> record_version
        then
          Error
            (`Corrupt
               (pos, "bad record magic/version (file overwritten or shifted?)"))
        else begin
          let plen = get_le32 buf (pos + 5) in
          let crc = get_le32 buf (pos + 9) in
          if plen < 0 || pos + record_header_size + plen > size then
            (* The length field points past EOF: a torn payload — unless
               a valid record follows, in which case the length itself is
               corrupt and cutting here would drop acknowledged history. *)
            if record_follows data size pos then
              Error
                (`Corrupt
                   ( pos,
                     Printf.sprintf
                       "record length %d runs past EOF but valid records follow — corrupt length field, refusing to drop %d bytes"
                       plen (size - pos) ))
            else Ok (List.rev acc, Truncated { offset = pos; bytes = size - pos })
          else begin
            let payload = String.sub data (pos + record_header_size) plen in
            let actual =
              Int32.to_int
                (Int32.logand (Crc32.digest_string payload) 0xffffffffl)
              land 0xffffffff
            in
            let next = pos + record_header_size + plen in
            if actual <> crc then
              if next = size && not (record_follows data size pos) then
                (* Full-length final record with a bad CRC: the header
                   block hit the disk but the payload did not — torn.
                   The [record_follows] guard catches the one alias: a
                   mid-log length field mutated to swallow every later
                   record exactly up to EOF would otherwise masquerade
                   as a torn tail and silently drop acknowledged
                   history. *)
                Ok (List.rev acc, Truncated { offset = pos; bytes = size - pos })
              else
                Error
                  (`Corrupt
                     ( pos,
                       Printf.sprintf "payload CRC mismatch (stored %08x, computed %08x)"
                         crc actual ))
            else go next ((pos, payload) :: acc)
          end
        end
      in
      go header_size []
    end

let truncate ?(io = Io.real) path offset = io.Io.truncate path offset

(* ------------------------------------------------------------------ *)
(* Stand-alone record codec + tailing — the replication stream ships
   journal records as the exact bytes the format defines, so a standby
   can append what it receives and end up with a byte-compatible
   journal. *)

let crc_of payload =
  Int32.to_int (Int32.logand (Crc32.digest_string payload) 0xffffffffl)
  land 0xffffffff

let encode_record payload =
  let plen = String.length payload in
  let buf = Bytes.create (record_header_size + plen) in
  Bytes.blit_string record_magic 0 buf 0 4;
  Bytes.set buf 4 record_version;
  put_le32 buf 5 plen;
  put_le32 buf 9 (crc_of payload);
  Bytes.blit_string payload 0 buf record_header_size plen;
  Bytes.unsafe_to_string buf

let decode_record s =
  let size = String.length s in
  if size < record_header_size then Error "short record"
  else if String.sub s 0 4 <> record_magic then Error "bad record magic"
  else if s.[4] <> record_version then Error "bad record version"
  else
    let buf = Bytes.unsafe_of_string s in
    let plen = get_le32 buf 5 in
    let crc = get_le32 buf 9 in
    if plen < 0 || record_header_size + plen <> size then
      Error
        (Printf.sprintf "record length %d does not match %d payload bytes" plen
           (size - record_header_size))
    else
      let payload = String.sub s record_header_size plen in
      if crc_of payload <> crc then Error "payload CRC mismatch"
      else Ok payload

let tail ?(io = Io.real) path ~from_offset =
  match scan ~io path with
  | Error (`Corrupt (off, reason)) ->
    Error (Printf.sprintf "corrupt journal at byte %d: %s" off reason)
  | Ok (records, _torn) ->
    (* A torn tail is simply the end of the durable prefix: the next
       [tail] call from the same offset will pick up whatever a repaired
       append adds. *)
    let keep = List.filter (fun (off, _) -> off >= from_offset) records in
    let end_offset =
      List.fold_left
        (fun acc (off, payload) ->
          max acc (off + record_header_size + String.length payload))
        (max from_offset header_size)
        records
    in
    Ok (keep, end_offset)
