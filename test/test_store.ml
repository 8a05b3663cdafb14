(* Store tests: the write-ahead journal, snapshots and crash recovery.

   The headline is the fault-injection sweep: a full oracle-driven session
   is journaled, then the journal is cut at EVERY record boundary (plus
   torn mid-record variants) as if SIGKILL had landed there; each prefix
   must recover — every acknowledged answer intact — and the resumed
   session must finish bit-identical to the uninterrupted in-process
   [Session.run].  Alongside: record framing (torn tail vs mid-log
   corruption, the latter failing with the byte offset), group-commit
   concurrency, snapshot rotation and checksums, undo replay, ended
   sessions staying dead, and fingerprint drift detection. *)

module Pr = Jim_api.Protocol
module Service = Jim_server.Service
module Smoke = Jim_server.Smoke
module Wire = Jim_server.Wire
module Store = Jim_store.Store
module Journal = Jim_store.Journal
module Event = Jim_store.Event
module Snapshot = Jim_store.Snapshot
module Recovery = Jim_store.Recovery
module Crc32 = Jim_store.Crc32
module W = Jim_workloads
open Jim_core

(* ------------------------------------------------------------------ *)
(* Scratch directories and file helpers                                *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jim-store-test-%d-%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

(* ------------------------------------------------------------------ *)
(* Oracle-driven sessions over a Service (in-process, no socket)       *)

let params = Smoke.synthetic_params
let source_of = Smoke.synthetic_source

let oracle_of seed =
  Oracle.of_goal (W.Synthetic.generate (params seed)).W.Synthetic.goal

let expected_outcome ~seed ~strategy =
  let inst = W.Synthetic.generate (params seed) in
  let strat =
    match Strategy.of_string strategy with Ok s -> s | Error m -> failwith m
  in
  Session.run ~seed ~strategy:strat
    ~oracle:(Oracle.of_goal inst.W.Synthetic.goal)
    inst.W.Synthetic.relation

let start service ~seed ~strategy =
  match
    Service.handle service
      (Pr.Start_session { source = source_of seed; strategy; seed })
  with
  | Pr.Started { session; _ } -> session
  | other -> Alcotest.failf "start failed: %s" (Pr.response_to_string other)

(* Answer up to [rounds] questions ([-1]: to completion); how many were
   answered. *)
let drive service session oracle rounds =
  let rec loop asked =
    if asked = rounds then asked
    else
      match Service.handle service (Pr.Get_question { session }) with
      | Pr.Question None -> asked
      | Pr.Question (Some { Pr.cls; sg; _ }) -> (
        match
          Service.handle service
            (Pr.Answer { session; cls; label = Oracle.label oracle sg })
        with
        | Pr.Answered _ -> loop (asked + 1)
        | other ->
          Alcotest.failf "answer failed: %s" (Pr.response_to_string other))
      | other -> Alcotest.failf "get failed: %s" (Pr.response_to_string other)
  in
  loop 0

let result_of service session =
  match Service.handle service (Pr.Result { session }) with
  | Pr.Outcome o -> o
  | other -> Alcotest.failf "result failed: %s" (Pr.response_to_string other)

let labeled_of service session =
  match Service.handle service (Pr.Stats { session }) with
  | Pr.Session_stats st -> st.Pr.labeled
  | other -> Alcotest.failf "stats failed: %s" (Pr.response_to_string other)

let open_store ?snapshot_every dir =
  match Store.open_dir ~fsync:false ?snapshot_every dir with
  | Ok (store, recovered) -> (store, recovered)
  | Error e -> Alcotest.failf "open_dir %s: %s" dir e

let durable_service ?snapshot_every dir =
  let store, recovered = open_store ?snapshot_every dir in
  let service = Service.create ~persist:(Store.record store) () in
  (match Service.restore service recovered with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "restore: %s" e);
  (service, store, recovered)

(* ------------------------------------------------------------------ *)
(* CRC32                                                               *)

let test_crc32_kat () =
  (* The CRC-32/IEEE check value from the ROCKSOFT model catalogue. *)
  Alcotest.(check int32)
    "check value" 0xcbf43926l
    (Crc32.digest_string "123456789");
  Alcotest.(check string) "hex" "cbf43926"
    (Crc32.to_hex (Crc32.digest_string "123456789"));
  Alcotest.(check int32) "empty" 0l (Crc32.digest_string "");
  (* incremental digest equals one-shot *)
  let s = "the quick brown fox" in
  let part =
    Crc32.digest ~crc:(Crc32.digest_string (String.sub s 0 7))
      (Bytes.of_string s) 7
      (String.length s - 7)
  in
  Alcotest.(check int32) "incremental" (Crc32.digest_string s) part

(* ------------------------------------------------------------------ *)
(* Event codec                                                         *)

let sample_events =
  let sg =
    match Jim_partition.Partition.of_string "{0,2}{1}{3,4}" with
    | Ok p -> p
    | Error e -> failwith e
  in
  [
    Event.Started
      {
        session = 3;
        arity = 5;
        source = source_of 42;
        strategy = "lookahead-entropy";
        seed = 7;
        fingerprint = "deadbeef";
      };
    Event.Started
      {
        session = 1;
        arity = 5;
        source = Pr.Builtin "flights";
        strategy = "random";
        seed = 0;
        fingerprint = "00000000";
      };
    Event.Started
      {
        session = 9;
        arity = 3;
        source = Pr.Csv_inline "a,b,c\n1,\"x,\"\"y\"\new line\",2\n";
        strategy = "random";
        seed = 12;
        fingerprint = "cafe0001";
      };
    Event.Answered { session = 3; cls = 4; sg; label = State.Pos };
    Event.Answered { session = 1; cls = 0; sg; label = State.Neg };
    Event.Undone { session = 3 };
    Event.Ended { session = 1 };
  ]

let event_eq a b =
  match (a, b) with
  | ( Event.Started
        { session; arity; source; strategy; seed; fingerprint },
      Event.Started
        {
          session = session';
          arity = arity';
          source = source';
          strategy = strategy';
          seed = seed';
          fingerprint = fingerprint';
        } ) ->
    session = session' && arity = arity' && strategy = strategy'
    && seed = seed' && fingerprint = fingerprint'
    && Pr.request_to_string
         (Pr.Start_session { source; strategy = ""; seed = 0 })
       = Pr.request_to_string
           (Pr.Start_session { source = source'; strategy = ""; seed = 0 })
  | ( Event.Answered { session; cls; sg; label },
      Event.Answered
        { session = session'; cls = cls'; sg = sg'; label = label' } ) ->
    session = session' && cls = cls'
    && Jim_partition.Partition.equal sg sg'
    && label = label'
  | Event.Undone { session }, Event.Undone { session = session' }
  | Event.Ended { session }, Event.Ended { session = session' } ->
    session = session'
  | _ -> false

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      let s = Event.to_string ev in
      Alcotest.(check bool)
        ("single line: " ^ s)
        false
        (String.contains s '\n');
      match Event.of_string s with
      | Error e -> Alcotest.failf "decode %s: %s" s e
      | Ok ev' ->
        Alcotest.(check bool) ("roundtrip: " ^ s) true (event_eq ev ev'))
    sample_events

(* ------------------------------------------------------------------ *)
(* Journal framing                                                     *)

let sample_payloads =
  [ "alpha"; ""; "a longer payload with spaces"; "\x00\x01binary\xff"; "z" ]

let write_sample_journal path =
  let j = Journal.create ~fsync:false path in
  List.iter (Journal.append j) sample_payloads;
  Journal.close j

let test_journal_roundtrip () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "j.wal" in
      write_sample_journal path;
      match Journal.scan path with
      | Error (`Corrupt (off, m)) -> Alcotest.failf "corrupt at %d: %s" off m
      | Ok (records, tail) ->
        Alcotest.(check bool) "complete tail" true (tail = Journal.Complete);
        Alcotest.(check (list string))
          "payloads in order" sample_payloads
          (List.map snd records);
        (* offsets are strictly increasing and start at the file header *)
        let offsets = List.map fst records in
        Alcotest.(check int) "first offset" Journal.header_size
          (List.hd offsets);
        Alcotest.(check bool) "offsets increase" true
          (List.for_all2 ( < ) offsets (List.tl offsets @ [ max_int ])))

let test_journal_reopen_append () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "j.wal" in
      write_sample_journal path;
      (match Journal.open_append ~fsync:false path with
      | Error e -> Alcotest.fail e
      | Ok j ->
        Journal.append j "appended after reopen";
        Journal.close j);
      match Journal.scan path with
      | Error _ -> Alcotest.fail "scan after reopen"
      | Ok (records, tail) ->
        Alcotest.(check bool) "complete" true (tail = Journal.Complete);
        Alcotest.(check (list string))
          "old + new"
          (sample_payloads @ [ "appended after reopen" ])
          (List.map snd records))

(* The record codec the replication stream ships: encode_record's bytes
   are exactly what append writes, and decode_record refuses anything
   but one intact record. *)
let test_record_codec () =
  List.iter
    (fun payload ->
      let r = Journal.encode_record payload in
      Alcotest.(check string) "record magic leads" Journal.record_magic
        (String.sub r 0 (String.length Journal.record_magic));
      (match Journal.decode_record r with
      | Ok p -> Alcotest.(check string) "roundtrip" payload p
      | Error e -> Alcotest.failf "decode: %s" e);
      (* single-byte damage is rejected, wherever it lands *)
      let i = String.length r / 2 in
      let mutated = Bytes.of_string r in
      Bytes.set mutated i (Char.chr (Char.code r.[i] lxor 0x40));
      (match Journal.decode_record (Bytes.to_string mutated) with
      | Ok _ -> Alcotest.failf "damaged byte %d decoded" i
      | Error _ -> ());
      (* so are truncation and trailing garbage: exactly one record *)
      (match Journal.decode_record (String.sub r 0 (String.length r - 1)) with
      | Ok _ -> Alcotest.fail "truncated record decoded"
      | Error _ -> ());
      match Journal.decode_record (r ^ "x") with
      | Ok _ -> Alcotest.fail "trailing garbage decoded"
      | Error _ -> ())
    sample_payloads;
  (* encoded records are byte-identical to what append writes: a
     standby appending received records builds the same file *)
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "j.wal" in
      write_sample_journal path;
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let rebuilt =
        "JIMWAL01" ^ String.concat "" (List.map Journal.encode_record sample_payloads)
      in
      Alcotest.(check string) "file = header + encoded records" data rebuilt)

(* The streaming iterator a primary ships its journal with. *)
let test_journal_tail () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "j.wal" in
      write_sample_journal path;
      let end_off =
        match Journal.tail path ~from_offset:0 with
        | Error e -> Alcotest.fail e
        | Ok (records, end_off) ->
          Alcotest.(check (list string))
            "everything from offset 0" sample_payloads (List.map snd records);
          end_off
      in
      (* resuming at the end yields nothing and holds position *)
      (match Journal.tail path ~from_offset:end_off with
      | Ok ([], e) -> Alcotest.(check int) "position stable" end_off e
      | Ok (rs, _) -> Alcotest.failf "%d unexpected records" (List.length rs)
      | Error e -> Alcotest.fail e);
      (* append more: tailing from the old end sees exactly the new *)
      (match Journal.open_append ~fsync:false path with
      | Error e -> Alcotest.fail e
      | Ok j ->
        Journal.append j "new-1";
        Journal.append j "new-2";
        Journal.close j);
      let end2 =
        match Journal.tail path ~from_offset:end_off with
        | Error e -> Alcotest.fail e
        | Ok (rs, end2) ->
          Alcotest.(check (list string))
            "only the new records" [ "new-1"; "new-2" ] (List.map snd rs);
          Alcotest.(check bool) "offset advanced" true (end2 > end_off);
          end2
      in
      (* a torn final record ends the durable prefix — not an error *)
      Unix.truncate path (end2 - 3);
      match Journal.tail path ~from_offset:end_off with
      | Error e -> Alcotest.failf "torn tail errored: %s" e
      | Ok (rs, e) ->
        Alcotest.(check (list string))
          "torn record withheld" [ "new-1" ] (List.map snd rs);
        Alcotest.(check bool) "end before the tear" true (e < end2))

let test_journal_group_commit () =
  (* Concurrent appenders with real fsync: every payload must land
     exactly once (the group-commit leader/follower dance loses none). *)
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "j.wal" in
      let j = Journal.create ~fsync:true path in
      let n_threads = 4 and per_thread = 25 in
      let spawn t =
        Thread.create
          (fun () ->
            for i = 0 to per_thread - 1 do
              Journal.append j (Printf.sprintf "t%d-%d" t i)
            done)
          ()
      in
      let threads = List.init n_threads spawn in
      List.iter Thread.join threads;
      Journal.close j;
      match Journal.scan path with
      | Error (`Corrupt (off, m)) -> Alcotest.failf "corrupt at %d: %s" off m
      | Ok (records, tail) ->
        Alcotest.(check bool) "complete" true (tail = Journal.Complete);
        let got = List.sort compare (List.map snd records) in
        let want =
          List.sort compare
            (List.concat_map
               (fun t ->
                 List.init per_thread (fun i -> Printf.sprintf "t%d-%d" t i))
               (List.init n_threads Fun.id))
        in
        Alcotest.(check (list string)) "all payloads, once each" want got)

let test_journal_windowed_group_commit () =
  (* Adaptive group commit (--commit-window): staged appends drain as
     combined writes under one fsync barrier.  A multi-payload
     append_many forms one batch deterministically; concurrent
     appenders must still land every payload exactly once, and the
     batch counters must account for every record. *)
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "j.wal" in
      let j = Journal.create ~fsync:true ~window:0.002 path in
      let bulk = List.init 5 (Printf.sprintf "bulk-%d") in
      Journal.append_many j bulk;
      let s = Journal.batch_stats j in
      Alcotest.(check bool) "append_many forms one batch of 5" true
        (s.Journal.max_batch >= 5);
      let n_threads = 8 and per_thread = 25 in
      let spawn t =
        Thread.create
          (fun () ->
            for i = 0 to per_thread - 1 do
              Journal.append j (Printf.sprintf "t%d-%d" t i)
            done)
          ()
      in
      let threads = List.init n_threads spawn in
      List.iter Thread.join threads;
      Journal.close j;
      let s = Journal.batch_stats j in
      let total = 5 + (n_threads * per_thread) in
      Alcotest.(check int) "every record went through a batch" total
        s.Journal.records;
      Alcotest.(check int) "histogram sums to the batch count"
        s.Journal.batches
        (Array.fold_left ( + ) 0 s.Journal.by_size);
      match Journal.scan path with
      | Error (`Corrupt (off, m)) -> Alcotest.failf "corrupt at %d: %s" off m
      | Ok (records, tail) ->
        Alcotest.(check bool) "complete" true (tail = Journal.Complete);
        let got = List.sort compare (List.map snd records) in
        let want =
          List.sort compare
            (bulk
            @ List.concat_map
                (fun t ->
                  List.init per_thread (fun i -> Printf.sprintf "t%d-%d" t i))
                (List.init n_threads Fun.id))
        in
        Alcotest.(check (list string)) "all payloads, once each" want got)

let test_journal_torn_batch () =
  (* A combined (batched) append cut at any byte must behave exactly
     like the same records written one by one: a clean prefix of whole
     records plus one torn tail — never corruption, never a record
     from the middle of the batch without its predecessors. *)
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "j.wal" in
      let payloads = List.init 6 (Printf.sprintf "batched-%d") in
      let j = Journal.create ~fsync:true ~window:0.002 path in
      Journal.append_many j payloads;
      Journal.close j;
      let data = read_file path in
      let full = String.length data in
      let cut = Filename.concat dir "cut.wal" in
      for k = 0 to full do
        write_file cut (String.sub data 0 k);
        match Journal.scan cut with
        | Error (`Corrupt (off, m)) ->
          Alcotest.failf "batch prefix %d/%d corrupt at %d: %s" k full off m
        | Ok (records, _tail) ->
          let got = List.map snd records in
          let want = List.filteri (fun i _ -> i < List.length got) payloads in
          Alcotest.(check (list string))
            (Printf.sprintf "prefix %d: clean prefix of the batch" k)
            want got
      done)

let test_journal_torn_tail_every_prefix () =
  (* Cut the file at every byte length: a crash prefix must never read as
     corrupt — only complete or torn — and truncating the torn tail must
     leave a clean journal holding a prefix of the records. *)
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "j.wal" in
      write_sample_journal path;
      let data = read_file path in
      let full = String.length data in
      let cut = Filename.concat dir "cut.wal" in
      for k = 0 to full do
        write_file cut (String.sub data 0 k);
        match Journal.scan cut with
        | Error (`Corrupt (off, m)) ->
          Alcotest.failf "prefix %d/%d read as corrupt at %d: %s" k full off m
        | Ok (records, tail) -> (
          let payloads = List.map snd records in
          let is_prefix =
            List.length payloads <= List.length sample_payloads
            && List.for_all2 ( = ) payloads
                 (List.filteri
                    (fun i _ -> i < List.length payloads)
                    sample_payloads)
          in
          Alcotest.(check bool)
            (Printf.sprintf "prefix %d: records are a prefix" k)
            true is_prefix;
          match tail with
          | Journal.Complete -> ()
          | Journal.Truncated { offset; bytes } ->
            Alcotest.(check int)
              (Printf.sprintf "prefix %d: torn bytes" k)
              (k - offset) bytes;
            (match Journal.truncate cut offset with
            | Ok () -> ()
            | Error e -> Alcotest.fail e);
            (match Journal.scan cut with
            | Ok (records', Journal.Complete) when offset >= Journal.header_size
              ->
              Alcotest.(check int)
                (Printf.sprintf "prefix %d: clean after cut" k)
                (List.length records) (List.length records')
            | Ok (_, Journal.Truncated { offset = 0; _ })
              when offset < Journal.header_size ->
              ()  (* partial file header: still torn-at-0 until recreated *)
            | Ok _ -> Alcotest.failf "prefix %d: still torn after cut" k
            | Error (`Corrupt (off, m)) ->
              Alcotest.failf "prefix %d: corrupt after cut at %d: %s" k off m))
      done)

let test_journal_midlog_corruption () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "j.wal" in
      write_sample_journal path;
      let data = Bytes.of_string (read_file path) in
      (* Locate record 3 of 5 and flip a payload byte. *)
      let offsets =
        match Journal.scan path with
        | Ok (records, _) -> List.map fst records
        | Error _ -> Alcotest.fail "scan of pristine journal"
      in
      let victim = List.nth offsets 2 in
      let payload_pos = victim + 13 (* record header *) in
      Bytes.set data payload_pos
        (Char.chr (Char.code (Bytes.get data payload_pos) lxor 0x01));
      write_file path (Bytes.to_string data);
      (match Journal.scan path with
      | Error (`Corrupt (off, reason)) ->
        Alcotest.(check int) "corruption located at the record" victim off;
        Alcotest.(check bool) "reason names the CRC" true
          (let lower = String.lowercase_ascii reason in
           let rec has i =
             i + 3 <= String.length lower && (String.sub lower i 3 = "crc" || has (i + 1))
           in
           has 0)
      | Ok _ -> Alcotest.fail "mid-log corruption read back as valid");
      (* The same bytes at the END of the log are torn, not corrupt: the
         final record is the one a crash can legitimately mangle. *)
      let last = List.nth offsets 4 in
      let tail_data = Bytes.sub data 0 (Bytes.length data) in
      (* undo the mid-log flip, flip a byte in the last record instead *)
      Bytes.set tail_data payload_pos
        (Char.chr (Char.code (Bytes.get tail_data payload_pos) lxor 0x01));
      Bytes.set tail_data (last + 13)
        (Char.chr (Char.code (Bytes.get tail_data (last + 13)) lxor 0x01));
      write_file path (Bytes.to_string tail_data);
      match Journal.scan path with
      | Ok (records, Journal.Truncated { offset; _ }) ->
        Alcotest.(check int) "torn at the last record" last offset;
        Alcotest.(check int) "records before the tear" 4 (List.length records)
      | Ok (_, Journal.Complete) -> Alcotest.fail "bad final CRC read as clean"
      | Error (`Corrupt (off, m)) ->
        Alcotest.failf "final-record damage must be torn, got corrupt at %d: %s"
          off m)

let test_journal_corrupt_length () =
  (* A length field damaged in place points past EOF, which looks exactly
     like a torn tail — except real records follow it.  Mid-log it must
     be refused (truncating would drop acknowledged history); on the
     final record it is indistinguishable from a torn append and is cut. *)
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "j.wal" in
      write_sample_journal path;
      let pristine = read_file path in
      let offsets =
        match Journal.scan path with
        | Ok (records, _) -> List.map fst records
        | Error _ -> Alcotest.fail "scan of pristine journal"
      in
      let smash_length data off =
        (* little-endian 0x7fffffff: far past EOF *)
        Bytes.set data (off + 5) '\xff';
        Bytes.set data (off + 6) '\xff';
        Bytes.set data (off + 7) '\xff';
        Bytes.set data (off + 8) '\x7f'
      in
      let victim = List.nth offsets 1 in
      let data = Bytes.of_string pristine in
      smash_length data victim;
      write_file path (Bytes.to_string data);
      (match Journal.scan path with
      | Error (`Corrupt (off, reason)) ->
        Alcotest.(check int) "located at the damaged record" victim off;
        Alcotest.(check bool) "reason names the length" true
          (let lower = String.lowercase_ascii reason in
           let needle = "length" in
           let rec has i =
             i + String.length needle <= String.length lower
             && (String.sub lower i (String.length needle) = needle
                || has (i + 1))
           in
           has 0)
      | Ok (_, Journal.Truncated { offset; _ }) ->
        Alcotest.failf "mid-log length damage read as torn at %d" offset
      | Ok (_, Journal.Complete) ->
        Alcotest.fail "mid-log length damage read as clean");
      (* the same damage on the last record: torn, cut there *)
      let last = List.nth offsets (List.length offsets - 1) in
      let data = Bytes.of_string pristine in
      smash_length data last;
      write_file path (Bytes.to_string data);
      match Journal.scan path with
      | Ok (records, Journal.Truncated { offset; _ }) ->
        Alcotest.(check int) "torn at the last record" last offset;
        Alcotest.(check int) "records before the tear"
          (List.length offsets - 1)
          (List.length records)
      | Ok (_, Journal.Complete) ->
        Alcotest.fail "bad final length read as clean"
      | Error (`Corrupt (off, m)) ->
        Alcotest.failf
          "final-record length damage must be torn, got corrupt at %d: %s" off
          m)

(* ------------------------------------------------------------------ *)
(* Snapshot format                                                     *)

let sample_snapshot () =
  let sg s =
    match Jim_partition.Partition.of_string s with
    | Ok p -> p
    | Error e -> failwith e
  in
  {
    Snapshot.next_id = 7;
    sessions =
      [
        {
          Snapshot.id = 2;
          source = source_of 42;
          strategy = "lookahead-entropy";
          seed = 11;
          fingerprint = "0badf00d";
          transcript =
            {
              Transcript.arity = 5;
              entries =
                [
                  { Transcript.sg = sg "{0,2}{1}{3}{4}"; label = State.Pos };
                  { Transcript.sg = sg "{0}{1,4}{2}{3}"; label = State.Neg };
                ];
              result = None;
            };
        };
        {
          Snapshot.id = 5;
          source = Pr.Csv_inline "a,b\n1,1\n2,3\n";
          strategy = "random";
          seed = 3;
          fingerprint = "11223344";
          transcript =
            { Transcript.arity = 2; entries = []; result = None };
        };
      ];
  }

let test_snapshot_roundtrip () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "snapshot.1" in
      let snap = sample_snapshot () in
      (match Snapshot.write path snap with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      match Snapshot.load path with
      | Error e -> Alcotest.fail e
      | Ok snap' ->
        Alcotest.(check int) "next_id" snap.Snapshot.next_id
          snap'.Snapshot.next_id;
        Alcotest.(check (list int))
          "session ids"
          (List.map (fun s -> s.Snapshot.id) snap.Snapshot.sessions)
          (List.map (fun s -> s.Snapshot.id) snap'.Snapshot.sessions);
        List.iter2
          (fun (a : Snapshot.session) (b : Snapshot.session) ->
            Alcotest.(check string) "strategy" a.strategy b.strategy;
            Alcotest.(check int) "seed" a.seed b.seed;
            Alcotest.(check string) "fingerprint" a.fingerprint b.fingerprint;
            Alcotest.(check int)
              "labels"
              (List.length a.transcript.Transcript.entries)
              (List.length b.transcript.Transcript.entries))
          snap.Snapshot.sessions snap'.Snapshot.sessions)

let test_snapshot_checksum () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "snapshot.1" in
      (match Snapshot.write path (sample_snapshot ()) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let data = Bytes.of_string (read_file path) in
      (* flip a byte well inside the body *)
      Bytes.set data 20 (Char.chr (Char.code (Bytes.get data 20) lxor 0x04));
      write_file path (Bytes.to_string data);
      match Snapshot.load path with
      | Error e ->
        Alcotest.(check bool) "names the checksum" true
          (let lower = String.lowercase_ascii e in
           let needle = "checksum" in
           let rec has i =
             i + String.length needle <= String.length lower
             && (String.sub lower i (String.length needle) = needle
                || has (i + 1))
           in
           has 0)
      | Ok _ -> Alcotest.fail "tampered snapshot loaded")

(* ------------------------------------------------------------------ *)
(* The fault-injection sweep: SIGKILL at every record boundary          *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Journal a complete oracle-driven session into [dir], return the raw
   journal bytes (the store is closed, so the bytes are final). *)
let journaled_run dir ~seed ~strategy =
  let store, recovered = open_store dir in
  Alcotest.(check int) "fresh dir" 0
    (List.length recovered.Recovery.sessions);
  let service = Service.create ~persist:(Store.record store) () in
  let session = start service ~seed ~strategy in
  let _ = drive service session (oracle_of seed) (-1) in
  (* deliberately no End_session: the crash happens with the session live *)
  Store.close store;
  read_file (Recovery.journal_path dir 0)

(* Count the surviving labels in a prefix of the journal (answers minus
   the undos that popped them): what Stats must report after recovery. *)
let surviving_labels records =
  List.fold_left
    (fun n (_, payload) ->
      match Event.of_string payload with
      | Ok (Event.Answered _) -> n + 1
      | Ok (Event.Undone _) -> max 0 (n - 1)
      | _ -> n)
    0 records

let recover_and_finish dir ~seed ~strategy =
  let service, store, recovered = durable_service dir in
  let acked =
    match Journal.scan (Recovery.journal_path dir 0) with
    | Ok (records, _) -> surviving_labels records
    | Error (`Corrupt (off, m)) -> Alcotest.failf "corrupt at %d: %s" off m
  in
  (match recovered.Recovery.sessions with
  | [] ->
    Alcotest.(check int) "no acked answers lost (empty store)" 0 acked;
    let session = start service ~seed ~strategy in
    let _ = drive service session (oracle_of seed) (-1) in
    let got = result_of service session in
    Store.close store;
    Alcotest.(check bool)
      "fresh run after empty recovery is bit-identical" true
      (Smoke.outcome_equal (expected_outcome ~seed ~strategy) got)
  | [ rs ] ->
    let session = rs.Recovery.id in
    Alcotest.(check int) "every acked answer recovered" acked
      (labeled_of service session);
    let _ = drive service session (oracle_of seed) (-1) in
    let got = result_of service session in
    Store.close store;
    Alcotest.(check bool) "resumed outcome bit-identical" true
      (Smoke.outcome_equal (expected_outcome ~seed ~strategy) got)
  | _ -> Alcotest.fail "one session was journaled, several recovered")

let kill_sweep ~seed ~strategy =
  with_dir (fun dir ->
      let data = journaled_run dir ~seed ~strategy in
      rm_rf dir;
      (* Kill points: every record boundary, plus torn variants landing
         inside the next record's header and payload. *)
      let boundaries =
        with_dir (fun tmp ->
            Unix.mkdir tmp 0o755;
            let p = Filename.concat tmp "full.wal" in
            write_file p data;
            match Journal.scan p with
            | Ok (records, _) ->
              List.map fst records @ [ String.length data ]
            | Error _ -> Alcotest.fail "pristine journal unreadable")
      in
      let kill_points =
        List.concat_map
          (fun b -> [ b; min (String.length data) (b + 5); min (String.length data) (b + 14) ])
          boundaries
        |> List.sort_uniq compare
      in
      List.iter
        (fun k ->
          with_dir (fun dir ->
              Unix.mkdir dir 0o755;
              write_file (Recovery.journal_path dir 0) (String.sub data 0 k);
              recover_and_finish dir ~seed ~strategy))
        kill_points)

let test_kill_sweep_random () = kill_sweep ~seed:101 ~strategy:"random"

let test_kill_sweep_lookahead () =
  kill_sweep ~seed:100 ~strategy:"lookahead-entropy"

(* ------------------------------------------------------------------ *)
(* Mid-log corruption refuses recovery, naming the byte offset          *)

let test_recovery_rejects_midlog_corruption () =
  with_dir (fun dir ->
      let data = journaled_run dir ~seed:103 ~strategy:"random" in
      rm_rf dir;
      Unix.mkdir dir 0o755;
      let victim =
        (* second record's payload: mid-log for any multi-answer session *)
        let tmp = Filename.concat dir "probe.wal" in
        write_file tmp data;
        match Journal.scan tmp with
        | Ok (records, _) -> fst (List.nth records 1)
        | Error _ -> Alcotest.fail "pristine journal unreadable"
      in
      let bytes = Bytes.of_string data in
      Bytes.set bytes (victim + 13)
        (Char.chr (Char.code (Bytes.get bytes (victim + 13)) lxor 0x80));
      write_file (Recovery.journal_path dir 0) (Bytes.to_string bytes);
      (match Recovery.load dir with
      | Ok _ -> Alcotest.fail "corrupted journal recovered"
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error names byte offset %d: %s" victim e)
          true
          (contains ~needle:(Printf.sprintf "byte offset %d" victim) e));
      match Store.open_dir ~fsync:false dir with
      | Ok _ -> Alcotest.fail "store opened over corruption"
      | Error e ->
        Alcotest.(check bool) "open_dir carries the same diagnostic" true
          (contains ~needle:(Printf.sprintf "byte offset %d" victim) e))

(* ------------------------------------------------------------------ *)
(* Snapshot rotation and recovery through generations                  *)

let test_snapshot_rotation () =
  with_dir (fun dir ->
      let seed_a = 104 and seed_b = 105 in
      let store, _ = open_store ~snapshot_every:4 dir in
      let service = Service.create ~persist:(Store.record store) () in
      let sa = start service ~seed:seed_a ~strategy:"random" in
      let sb = start service ~seed:seed_b ~strategy:"random" in
      let a_done = drive service sa (oracle_of seed_a) 2 in
      let b_done = drive service sb (oracle_of seed_b) 2 in
      Alcotest.(check int) "a answered 2" 2 a_done;
      Alcotest.(check int) "b answered 2" 2 b_done;
      (* 2 starts + 4 answers with snapshot_every 4: at least one
         compaction has happened *)
      Alcotest.(check bool) "generation advanced" true
        (Store.generation store >= 1);
      let g = Store.generation store in
      Alcotest.(check bool) "old generation swept" true
        (not (Sys.file_exists (Recovery.journal_path dir 0)) || g = 0);
      Alcotest.(check bool) "snapshot exists" true
        (Sys.file_exists (Recovery.snapshot_path dir g));
      Store.close store;
      (* recover through the snapshot and finish both sessions *)
      let service', store', recovered = durable_service ~snapshot_every:4 dir in
      Alcotest.(check int) "both sessions recovered" 2
        (List.length recovered.Recovery.sessions);
      Alcotest.(check int) "a's answers survived compaction" 2
        (labeled_of service' sa);
      Alcotest.(check int) "b's answers survived compaction" 2
        (labeled_of service' sb);
      let _ = drive service' sa (oracle_of seed_a) (-1) in
      let _ = drive service' sb (oracle_of seed_b) (-1) in
      let ga = result_of service' sa and gb = result_of service' sb in
      Store.close store';
      Alcotest.(check bool) "a bit-identical across generations" true
        (Smoke.outcome_equal
           (expected_outcome ~seed:seed_a ~strategy:"random") ga);
      Alcotest.(check bool) "b bit-identical across generations" true
        (Smoke.outcome_equal
           (expected_outcome ~seed:seed_b ~strategy:"random") gb))

let test_forced_checkpoint () =
  with_dir (fun dir ->
      let store, _ = open_store dir in
      let service = Service.create ~persist:(Store.record store) () in
      let s = start service ~seed:106 ~strategy:"random" in
      let _ = drive service s (oracle_of 106) 2 in
      Store.checkpoint store;
      Alcotest.(check int) "rotated to generation 1" 1 (Store.generation store);
      Alcotest.(check int) "fresh journal is empty" 0 (Store.record_count store);
      Store.close store;
      let service', store', _ = durable_service dir in
      Alcotest.(check int) "answers restored from the snapshot alone" 2
        (labeled_of service' s);
      let _ = drive service' s (oracle_of 106) (-1) in
      let got = result_of service' s in
      Store.close store';
      Alcotest.(check bool) "outcome preserved" true
        (Smoke.outcome_equal
           (expected_outcome ~seed:106 ~strategy:"random") got))

(* The automatic checkpoint runs at the start of the record that finds
   the generation full.  When its snapshot write fails, that record
   raises before it is journaled: neither disk image recovers it, and
   the store retries the checkpoint at the next record. *)
let test_failed_checkpoint_leaves_no_trace () =
  let fs = Jim_fault.Memfs.create () in
  let broken = ref false in
  let io =
    let io = Jim_fault.Memfs.io fs in
    {
      io with
      Jim_store.Io.create =
        (fun path ->
          if !broken && Filename.check_suffix path ".tmp" then
            raise (Unix.Unix_error (Unix.EIO, "create", path))
          else io.Jim_store.Io.create path);
    }
  in
  let store =
    match Store.open_dir ~snapshot_every:2 ~io "/data" with
    | Ok (store, _) -> store
    | Error e -> Alcotest.fail e
  in
  let start id =
    Event.Started
      { session = id; arity = 4; source = Pr.Builtin "flights";
        strategy = "random"; seed = id; fingerprint = "00000000" }
  in
  broken := true;
  (* the first record whose checkpoint fails *)
  let rec failing id =
    if id > 4 then Alcotest.fail "no record saw its checkpoint fail"
    else
      match Store.record store (start id) with
      | () -> failing (id + 1)
      | exception Failure _ -> id
  in
  let failed = failing 1 in
  List.iter
    (fun (what, image) ->
      match Recovery.load ~io:(Jim_fault.Memfs.io image) "/data" with
      | Error e -> Alcotest.failf "%s: %s" what e
      | Ok r ->
        Alcotest.(check (list int)) (what ^ ": the failed record is absent")
          (List.init (failed - 1) succ)
          (List.map (fun s -> s.Recovery.id) r.Recovery.sessions))
    [ ("durable image", Jim_fault.Memfs.durable_image fs);
      ("flushed image", Jim_fault.Memfs.flushed_image fs) ];
  broken := false;
  Store.record store (start failed);
  Alcotest.(check int) "checkpoint retried" 1 (Store.generation store);
  Store.close store

(* ------------------------------------------------------------------ *)
(* Undo replay, ended sessions, id monotonicity, fingerprints           *)

let test_undo_replayed () =
  with_dir (fun dir ->
      (* Reference: the same answer/undo sequence on a purely in-memory
         service (which the acceptance criteria pin as the baseline). *)
      let script service session oracle =
        let _ = drive service session oracle 2 in
        (match Service.handle service (Pr.Undo { session }) with
        | Pr.Undone _ -> ()
        | other -> Alcotest.failf "undo failed: %s" (Pr.response_to_string other));
        let _ = drive service session oracle 1 in
        ()
      in
      let seed = 107 in
      let reference = Service.create () in
      let rs = start reference ~seed ~strategy:"random" in
      script reference rs (oracle_of seed);
      let store, _ = open_store dir in
      let durable = Service.create ~persist:(Store.record store) () in
      let ds = start durable ~seed ~strategy:"random" in
      script durable ds (oracle_of seed);
      Store.close store;  (* crash here: 3 answers, 1 undo journaled *)
      let durable', store', recovered = durable_service dir in
      Alcotest.(check int) "session survived" 1
        (List.length recovered.Recovery.sessions);
      Alcotest.(check int) "undo collapsed one answer" 2
        (labeled_of durable' ds);
      let _ = drive reference rs (oracle_of seed) (-1) in
      let _ = drive durable' ds (oracle_of seed) (-1) in
      let want = result_of reference rs and got = result_of durable' ds in
      Store.close store';
      Alcotest.(check bool)
        "undone history replays bit-identical to the in-memory service" true
        (Smoke.outcome_equal want got))

let test_ended_sessions_stay_dead () =
  with_dir (fun dir ->
      let store, _ = open_store dir in
      let service = Service.create ~persist:(Store.record store) () in
      let s1 = start service ~seed:108 ~strategy:"random" in
      let s2 = start service ~seed:109 ~strategy:"random" in
      let _ = drive service s1 (oracle_of 108) (-1) in
      (match Service.handle service (Pr.End_session { session = s1 }) with
      | Pr.Ended -> ()
      | other -> Alcotest.failf "end failed: %s" (Pr.response_to_string other));
      Store.close store;
      let service', store', recovered = durable_service dir in
      Alcotest.(check (list int))
        "only the live session comes back" [ s2 ]
        (List.map
           (fun (s : Recovery.session) -> s.Recovery.id)
           recovered.Recovery.sessions);
      (match Service.handle service' (Pr.Get_question { session = s1 }) with
      | Pr.Failed (Pr.Unknown_session _) -> ()
      | other ->
        Alcotest.failf "ended session answered: %s" (Pr.response_to_string other));
      (* ids never recycle across the crash *)
      let s3 = start service' ~seed:110 ~strategy:"random" in
      Store.close store';
      Alcotest.(check bool)
        (Printf.sprintf "fresh id %d > %d" s3 s2)
        true (s3 > s2))

let test_post_ended_events_tolerated () =
  (* Journals written before the Answer/End_session race was fixed can
     hold an answer/undo (or a duplicate Ended) after a session's Ended.
     The live shadow drops those silently, so replay must too — while an
     event for a session that was *never* started stays a hard error. *)
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let sg =
        match Jim_partition.Partition.of_string "{0,1}{2,3,4}" with
        | Ok p -> p
        | Error e -> failwith e
      in
      let jpath = Recovery.journal_path dir 0 in
      let j = Journal.create ~fsync:false jpath in
      List.iter
        (fun ev -> Journal.append j (Event.to_string ev))
        [
          Event.Started
            {
              session = 1;
              arity = 5;
              source = source_of 42;
              strategy = "random";
              seed = 7;
              fingerprint = "feedface";
            };
          Event.Answered { session = 1; cls = 0; sg; label = State.Pos };
          Event.Ended { session = 1 };
          Event.Answered { session = 1; cls = 1; sg; label = State.Neg };
          Event.Undone { session = 1 };
          Event.Ended { session = 1 };
        ];
      Journal.close j;
      (match Recovery.load dir with
      | Error e -> Alcotest.failf "post-Ended events broke recovery: %s" e
      | Ok r ->
        Alcotest.(check (list int))
          "session stays ended" []
          (List.map
             (fun (s : Recovery.session) -> s.Recovery.id)
             r.Recovery.sessions));
      let j =
        match Journal.open_append ~fsync:false jpath with
        | Ok j -> j
        | Error e -> Alcotest.fail e
      in
      Journal.append j
        (Event.to_string
           (Event.Answered { session = 99; cls = 0; sg; label = State.Pos }));
      Journal.close j;
      match Recovery.load dir with
      | Ok _ -> Alcotest.fail "answer for a never-started session recovered"
      | Error e ->
        Alcotest.(check bool)
          ("names the session: " ^ e)
          true
          (contains ~needle:"unknown session 99" e))

let test_fingerprint_drift_refused () =
  with_dir (fun dir ->
      let store, _ = open_store dir in
      Store.record store
        (Event.Started
           {
             session = 1;
             arity = 5;
             source = Pr.Builtin "flights";
             strategy = "random";
             seed = 0;
             fingerprint = "00000000";  (* not flights' real fingerprint *)
           });
      Store.close store;
      let store', recovered = open_store dir in
      let service = Service.create () in
      match Service.restore service recovered with
      | Ok _ ->
        Store.close store';
        Alcotest.fail "drifted instance restored"
      | Error e ->
        Store.close store';
        Alcotest.(check bool)
          ("error names the fingerprint: " ^ e)
          true
          (contains ~needle:"fingerprint" e))

let test_fingerprint_canonical () =
  let rel = W.Flights.instance in
  let fp = Store.fingerprint rel in
  Alcotest.(check string) "stable across calls" fp (Store.fingerprint rel);
  Alcotest.(check int) "8 hex digits" 8 (String.length fp);
  let other =
    Store.fingerprint (W.Setcards.pair_instance ())
  in
  Alcotest.(check bool) "different instances differ" true (fp <> other)

(* ------------------------------------------------------------------ *)
(* Instance references: each inline CSV text once per generation      *)

module Standby = Jim_shard.Standby
module Instances = Jim_store.Instances

(* The paper-scale inline instance: 6 attributes, 1,600 tuples. *)
let big_csv =
  lazy
    (Jim_relational.Csv.to_string
       (W.Synthetic.generate
          { W.Synthetic.n_attrs = 6; n_tuples = 1600; domain = 6;
            goal_rank = 2; seed = 3 })
         .W.Synthetic.relation)

let started ?(fingerprint = "0a1b2c3d") session source =
  Event.Started
    { session; arity = 6; source; strategy = "random"; seed = session;
      fingerprint }

let journal_payloads path =
  match Journal.scan path with
  | Ok (records, _) -> List.map snd records
  | Error (`Corrupt (o, m)) -> Alcotest.failf "%s: corrupt at %d: %s" path o m

let count ~needle hay =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else if String.sub hay i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* Sessions [ids] recovered, each with the concrete inline source. *)
let check_concrete what csv (r : Recovery.t) ids =
  List.iter
    (fun id ->
      match List.find_opt (fun s -> s.Recovery.id = id) r.Recovery.sessions with
      | None -> Alcotest.failf "%s: session %d lost" what id
      | Some { Recovery.source = Pr.Csv_inline text; _ } when text = csv -> ()
      | Some _ -> Alcotest.failf "%s: session %d not concrete" what id)
    ids

let test_inline_instance_once () =
  let csv = Lazy.force big_csv in
  let src = Pr.Csv_inline csv in
  with_dir (fun dir ->
      let store, _ = open_store dir in
      let builtin id = started id (Pr.Builtin "flights")
      and synthetic id = started id (source_of 42) in
      List.iter (Store.record store)
        [ builtin 10; started 1 src; synthetic 11; started 2 src; builtin 12;
          synthetic 13 ];
      Store.close store;
      (match journal_payloads (Recovery.journal_path dir 0) with
      | [ b1; first; s1; second; b2; s2 ] ->
        Alcotest.(check bool) "first Started carries the text" true
          (String.length first > String.length csv);
        if String.length second >= 256 then
          Alcotest.failf "second Started is %d B" (String.length second);
        (* Builtin and synthetic sources are never referenced. *)
        List.iter
          (fun (ev, p) ->
            Alcotest.(check string) "journaled as is" (Event.to_string ev) p)
          [ (builtin 10, b1); (builtin 12, b2); (synthetic 11, s1);
            (synthetic 13, s2) ]
      | l -> Alcotest.failf "%d records" (List.length l));
      (match Recovery.load dir with
      | Ok r -> check_concrete "one generation" csv r [ 1; 2 ]
      | Error e -> Alcotest.fail e);
      (* Reopened, the store knows what the journal holds; a checkpoint
         writes the text once for all 8 sessions, and a start after it
         refers to the snapshot's copy. *)
      let store, _ = open_store dir in
      for id = 3 to 8 do
        Store.record store (started id src)
      done;
      List.iteri
        (fun i p ->
          if i >= 2 && String.length p >= 256 then
            Alcotest.failf "record %d after reopen is %d B" i (String.length p))
        (journal_payloads (Recovery.journal_path dir 0));
      Store.checkpoint store;
      let snap = read_file (Recovery.snapshot_path dir 1) in
      Alcotest.(check int) "snapshot holds the text once" 1
        (count ~needle:(Jim_api.Codec.to_string Pr.source src) snap);
      Store.record store (started 9 src);
      Store.close store;
      (match journal_payloads (Recovery.journal_path dir 1) with
      | [ p ] when String.length p < 256 -> ()
      | _ -> Alcotest.fail "start after the checkpoint is not a reference");
      match Recovery.load dir with
      | Ok r -> check_concrete "after a checkpoint" csv r (List.init 9 succ)
      | Error e -> Alcotest.fail e)

(* A reference whose origin is not earlier in its generation: recovery
   and the standby refuse it with an error naming where it sits. *)
let test_dangling_reference_refused () =
  let dangling = started 2 (Pr.Catalog "deadbeef") in
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let j = Journal.create ~fsync:false (Recovery.journal_path dir 0) in
      let first = Event.to_string (started 1 (Pr.Builtin "flights")) in
      Journal.append j first;
      Journal.append j (Event.to_string dangling);
      Journal.close j;
      (match Store.open_dir ~fsync:false dir with
      | Ok _ -> Alcotest.fail "dangling journal reference recovered"
      | Error e ->
        let offset =
          Printf.sprintf "byte offset %d"
            (Journal.header_size + String.length (Journal.encode_record first))
        in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("names " ^ needle ^ ": " ^ e) true
              (contains ~needle e))
          [ "journal.0.wal"; offset; "deadbeef" ]);
      let stb = Standby.create ~fsync:false ~dir:(Filename.concat dir "stb") () in
      (match Standby.install stb ~gen:0 ~snapshot:None with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (match
         Standby.apply_batch stb
           [ Journal.encode_record first;
             Journal.encode_record (Event.to_string dangling) ]
       with
      | Ok _ -> Alcotest.fail "standby applied a dangling reference"
      | Error _ ->
        Alcotest.(check (pair int int)) "batch left no trace" (0, 0)
          (Standby.position stb));
      Standby.close stb);
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let snap = sample_snapshot () in
      let snap =
        {
          snap with
          Snapshot.sessions =
            List.map
              (fun s -> { s with Snapshot.source = Pr.Catalog "deadbeef" })
              snap.Snapshot.sessions;
        }
      in
      (match Snapshot.write (Recovery.snapshot_path dir 1) snap with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (match Store.open_dir ~fsync:false dir with
      | Ok _ -> Alcotest.fail "dangling snapshot reference recovered"
      | Error e ->
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("names " ^ needle ^ ": " ^ e) true
              (contains ~needle e))
          [ "snapshot.1"; "byte offset"; "deadbeef" ]);
      let stb = Standby.create ~fsync:false ~dir:(Filename.concat dir "stb") () in
      (match
         Standby.install stb ~gen:1
           ~snapshot:(Some (read_file (Recovery.snapshot_path dir 1)))
       with
      | Ok () -> Alcotest.fail "standby installed a dangling reference"
      | Error _ ->
        Alcotest.(check bool) "refused baseline not written" false
          (Sys.file_exists
             (Recovery.snapshot_path (Filename.concat dir "stb") 1)));
      Standby.close stb)

(* Files written before instance references existed hold every source
   concretely; they recover as they are, and the store appends
   references to them from then on. *)
let test_all_concrete_dir_recovers () =
  let csv = Lazy.force big_csv in
  let src = Pr.Csv_inline csv in
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let session id =
        {
          Snapshot.id;
          source = src;
          strategy = "random";
          seed = id;
          fingerprint = "0a1b2c3d";
          transcript = { Transcript.arity = 6; entries = []; result = None };
        }
      in
      let body =
        "jim-snapshot 1\nnext-id 3\n"
        ^ String.concat ""
            (List.map
               (fun (s : Snapshot.session) ->
                 Printf.sprintf "session %d random %d 0a1b2c3d\nsource %s\n%send\n"
                   s.id s.seed
                   (Jim_api.Codec.to_string Pr.source s.source)
                   (Transcript.to_string s.transcript))
               [ session 1; session 2 ])
      in
      write_file (Recovery.snapshot_path dir 1)
        (body ^ "checksum " ^ Crc32.to_hex (Crc32.digest_string body) ^ "\n");
      let j = Journal.create ~fsync:false (Recovery.journal_path dir 1) in
      Journal.append j (Event.to_string (started 3 src));
      Journal.append j (Event.to_string (started 4 src));
      Journal.close j;
      let store, r = open_store dir in
      check_concrete "all-concrete files" csv r [ 1; 2; 3; 4 ];
      Store.record store (started 5 src);
      Store.close store;
      (match List.rev (journal_payloads (Recovery.journal_path dir 1)) with
      | last :: _ when String.length last < 256 -> ()
      | _ -> Alcotest.fail "new start on a held instance is not a reference");
      match Recovery.load dir with
      | Ok r -> check_concrete "after appending" csv r [ 1; 2; 3; 4; 5 ]
      | Error e -> Alcotest.fail e)

(* ------------------------------------------------------------------ *)
(* The crash drill over the wire                                       *)

let fresh_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jim-store-%d-%d.sock" (Unix.getpid ()) !counter)

(* [jim serve --data-dir] in miniature: open and recover the directory,
   restore its sessions, serve them; stopping closes the store. *)
let with_durable_server dir f =
  let node =
    Serving.start ~threads:8 ~fsync:false
      (Jim_shard.Node.Primary { data_dir = Some dir; replicate_to = None })
      (Wire.Unix_path (fresh_socket ()))
  in
  Fun.protect
    ~finally:(fun () -> Jim_shard.Node.stop node)
    (fun () -> f (Serving.address node))

(* [jim client --crash-start] then [--crash-resume] across a server
   restart, under both framings: every parked session must resume
   bit-identical, and a bad or missing state file must come back as a
   failed report or an error, never an exception. *)
let test_crash_drill_over_wire () =
  with_dir (fun dir ->
      let state name = Filename.concat dir ("state-" ^ name) in
      let framings = [ ("line", Wire.Line); ("binary", Wire.Binary) ] in
      with_durable_server (Filename.concat dir "data") (fun address ->
          List.iter
            (fun (name, framing) ->
              let reports =
                Smoke.crash_start ~framing ~address ~state_file:(state name)
                  ~clients:4 ()
              in
              Alcotest.(check int) (name ^ ": all parked") 4
                (List.length (List.filter (fun r -> r.Smoke.ok) reports)))
            framings);
      with_durable_server (Filename.concat dir "data") (fun address ->
          List.iter
            (fun (name, framing) ->
              match
                Smoke.crash_resume ~framing ~address ~state_file:(state name) ()
              with
              | Error e -> Alcotest.failf "%s: %s" name e
              | Ok reports ->
                Alcotest.(check int) (name ^ ": all resumed") 4
                  (List.length reports);
                List.iter
                  (fun r ->
                    if not r.Smoke.ok then
                      Alcotest.failf "%s: seed %d: %s" name r.Smoke.seed
                        r.Smoke.detail)
                  reports)
            framings;
          write_file (state "bad") "x strat 1 2\n";
          (match Smoke.crash_resume ~address ~state_file:(state "bad") () with
          | Ok [ r ] ->
            Alcotest.(check bool) "malformed line fails" false r.Smoke.ok;
            Alcotest.(check bool) "names the bad line" true
              (contains ~needle:"bad state line: x strat 1 2" r.Smoke.detail)
          | Ok rs -> Alcotest.failf "%d reports for one line" (List.length rs)
          | Error e -> Alcotest.failf "bad state file: %s" e);
          match Smoke.crash_resume ~address ~state_file:(state "missing") () with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "a missing state file resumed"))

let () =
  Alcotest.run "store"
    [
      ("crc32", [ Alcotest.test_case "known answers" `Quick test_crc32_kat ]);
      ( "event",
        [ Alcotest.test_case "codec roundtrip" `Quick test_event_roundtrip ] );
      ( "journal",
        [
          Alcotest.test_case "append/scan roundtrip" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "reopen for append" `Quick
            test_journal_reopen_append;
          Alcotest.test_case "record codec: roundtrip, damage, framing" `Quick
            test_record_codec;
          Alcotest.test_case "tail streams from an offset" `Quick
            test_journal_tail;
          Alcotest.test_case "windowed group commit batches and counts"
            `Quick test_journal_windowed_group_commit;
          Alcotest.test_case "torn combined append is a clean prefix" `Quick
            test_journal_torn_batch;
          Alcotest.test_case "group commit under threads" `Quick
            test_journal_group_commit;
          Alcotest.test_case "every byte prefix is torn, never corrupt" `Quick
            test_journal_torn_tail_every_prefix;
          Alcotest.test_case "mid-log vs final-record damage" `Quick
            test_journal_midlog_corruption;
          Alcotest.test_case "corrupt length field never truncates mid-log"
            `Quick test_journal_corrupt_length;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "write/load roundtrip" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "checksum rejects tampering" `Quick
            test_snapshot_checksum;
          Alcotest.test_case "rotation across generations" `Quick
            test_snapshot_rotation;
          Alcotest.test_case "forced checkpoint" `Quick test_forced_checkpoint;
          Alcotest.test_case "failed checkpoint leaves no trace" `Quick
            test_failed_checkpoint_leaves_no_trace;
        ] );
      ( "recovery",
        (* The on-disk prefix-cut sweeps are superseded by the simulated
           crash sweeps in test_fault (every write boundary, two disk
           images per cut, no real disk) — they stay as a slow
           cross-check that the real filesystem behaves like Memfs. *)
        (if match Sys.getenv_opt "JIM_SLOW_TESTS" with
            | None | Some "" | Some "0" -> false
            | Some _ -> true
         then
           [
             Alcotest.test_case "prefix-cut sweep, random strategy" `Slow
               test_kill_sweep_random;
             Alcotest.test_case "prefix-cut sweep, lookahead strategy" `Slow
               test_kill_sweep_lookahead;
           ]
         else [])
        @ [
          Alcotest.test_case "mid-log corruption names its byte offset" `Quick
            test_recovery_rejects_midlog_corruption;
          Alcotest.test_case "undo history replays exactly" `Quick
            test_undo_replayed;
          Alcotest.test_case "ended sessions stay dead, ids never recycle"
            `Quick test_ended_sessions_stay_dead;
          Alcotest.test_case "post-Ended events are dropped, like the shadow"
            `Quick test_post_ended_events_tolerated;
          Alcotest.test_case "fingerprint drift is refused" `Quick
            test_fingerprint_drift_refused;
          Alcotest.test_case "crash drill over the wire, both framings" `Quick
            test_crash_drill_over_wire;
          Alcotest.test_case "fingerprint is canonical" `Quick
            test_fingerprint_canonical;
        ] );
      ( "instance",
        [
          Alcotest.test_case "inline text once per generation" `Quick
            test_inline_instance_once;
          Alcotest.test_case "dangling reference is an error, never a raise"
            `Quick test_dangling_reference_refused;
          Alcotest.test_case "all-concrete directories still recover" `Quick
            test_all_concrete_dir_recovers;
        ] );
    ]
