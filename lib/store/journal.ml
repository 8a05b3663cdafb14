let file_magic = "JIMWAL01"
let header_size = String.length file_magic
let record_magic = "JREC"
let record_version = '\001'
let record_header_size = 4 + 1 + 4 + 4

type batch_stats = {
  batches : int;
  records : int;
  max_batch : int;
}

type t = {
  file : Io.file;
  fsync : bool;
  lock : Mutex.t;
      (* held across every syscall: one barrier runs at a time, and a
         caller that queues behind it finds its records already durable *)
  pending : Buffer.t;
      (* records staged but not yet written; the next barrier drains
         the whole buffer as one combined [write] *)
  mutable pending_records : int;  (* records inside [pending] *)
  mutable dirty : bool;  (* bytes written since the last fsync *)
  mutable failed : bool;  (* poisoned by a write/fsync failure *)
  mutable closed : bool;
  mutable scratch : Bytes.t;  (* record assembly buffer, reused across appends *)
  mutable batches : int;  (* barriers that wrote several records *)
  mutable batched_records : int;  (* records those batches carried *)
  mutable max_batch : int;  (* largest batch, in records *)
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

let of_file ~fsync file =
  {
    file;
    fsync;
    lock = Mutex.create ();
    pending = Buffer.create 4096;
    pending_records = 0;
    dirty = false;
    failed = false;
    closed = false;
    scratch = Bytes.create 512;
    batches = 0;
    batched_records = 0;
    max_batch = 0;
  }

let create ?(fsync = true) ?(io = Io.real) path =
  let file = io.Io.create path in
  write_all file (Bytes.of_string file_magic) 0 header_size;
  if fsync then file.Io.fsync ();
  of_file ~fsync file

let open_append ?(fsync = true) ?(io = Io.real) path =
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
      | Ok (file, _size) -> Ok (of_file ~fsync file))

let crc_of payload = Int32.to_int (Crc32.digest_string payload) land 0xffffffff

(* Write [payload]'s whole record, header then payload, at the start of
   [buf], which has room for it. *)
let assemble buf payload =
  let plen = String.length payload in
  Bytes.blit_string record_magic 0 buf 0 4;
  Bytes.set buf 4 record_version;
  put_le32 buf 5 plen;
  put_le32 buf 9 (crc_of payload);
  Bytes.blit_string payload 0 buf record_header_size plen

(* Assemble the record into [t.scratch] (growing it if the payload needs
   more room); returns the record's total length.  Caller holds the
   lock. *)
let record_into t payload =
  let total = record_header_size + String.length payload in
  if Bytes.length t.scratch < total then
    t.scratch <- Bytes.create (max total (2 * Bytes.length t.scratch));
  assemble t.scratch payload;
  total

let note_batch t n =
  t.batches <- t.batches + 1;
  t.batched_records <- t.batched_records + n;
  if n > t.max_batch then t.max_batch <- n

let batch_stats t =
  Mutex.protect t.lock (fun () : batch_stats ->
      {
        batches = t.batches;
        records = t.batched_records;
        max_batch = t.max_batch;
      })

(* Caller holds the lock.  Stage one record into [t.pending]. *)
let stage t payload =
  let total = record_into t payload in
  Buffer.add_subbytes t.pending t.scratch 0 total;
  t.pending_records <- t.pending_records + 1

(* Caller holds the lock.  Run one I/O step of a barrier, poisoning the
   journal if it fails.

   Poisoning: a failed or short write can leave a partial record
   mid-file, and a failed fsync leaves the kernel free to have dropped
   dirty pages we can no longer re-sync (the PostgreSQL "fsyncgate"
   lesson: retrying fsync after a failure is not safe).  Either way the
   only safe continuation is none at all — the journal flips to [failed]
   and every later append raises {!Poisoned}, so the damage stays
   confined to the (unacknowledged) tail where recovery can cut it,
   instead of becoming mid-log corruption under acknowledged records. *)
let poisoning t f =
  try f ()
  with exn ->
    t.failed <- true;
    raise exn

(* Caller holds the lock.  Push the staged records to the file as one
   combined write.  A write of several records counts as a batch. *)
let flush_pending t =
  if Buffer.length t.pending > 0 then begin
    let batch = Buffer.to_bytes t.pending in
    let nrec = t.pending_records in
    Buffer.clear t.pending;
    t.pending_records <- 0;
    poisoning t (fun () -> write_all t.file batch 0 (Bytes.length batch));
    t.dirty <- true;
    if nrec > 1 then note_batch t nrec
  end

(* Caller holds the lock.  The barrier: the staged records go down as
   one combined write, then one fsync covers every byte written since
   the last.  With nothing staged and nothing unsynced it makes no
   syscall — the case of a caller whose records an earlier barrier
   already covered. *)
let barrier t =
  flush_pending t;
  if t.fsync && t.dirty then begin
    poisoning t t.file.Io.fsync;
    t.dirty <- false
  end

let locked t ~op f =
  Mutex.protect t.lock (fun () ->
      if t.closed then invalid_arg (op ^ ": closed");
      if t.failed then raise Poisoned;
      f ())

let write t payloads =
  if payloads <> [] then
    locked t ~op:"Journal.write" (fun () -> List.iter (stage t) payloads)

let sync t = locked t ~op:"Journal.sync" (fun () -> barrier t)

let append_many t payloads =
  if payloads <> [] then
    locked t ~op:"Journal.append_many" (fun () ->
        List.iter (stage t) payloads;
        barrier t)

let append t payload = append_many t [ payload ]

let failed t = Mutex.protect t.lock (fun () -> t.failed)

let close t =
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        t.closed <- true;
        if not t.failed then (try flush_pending t with _ -> ());
        if t.fsync && not t.failed then
          (try t.file.Io.fsync () with _ -> t.failed <- true);
        try t.file.Io.close () with _ -> ()
      end)

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
  && crc_of (String.sub data (q + record_header_size) plen) = crc

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
            let actual = crc_of payload in
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

let encode_record payload =
  let buf = Bytes.create (record_header_size + String.length payload) in
  assemble buf payload;
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
