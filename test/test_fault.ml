(* Fault-injection tests: the deterministic in-memory filesystem, the
   exhaustive simulated crash sweeps built on it, and the wire chaos
   proxy's failure classification.

   The headline replaces the old fork-free SIGKILL prefix sweeps:
   [Jim_fault.Sweep] drives a multi-session oracle workload through a
   durably persisted [Service] on [Memfs] and cuts the power at EVERY
   write boundary — plus torn-tail, failed-fsync, EIO and ENOSPC
   families — recovering and verifying both post-crash disk images
   in-process.  Hundreds of crash points per second, no processes, no
   real disk.  Alongside: a qcheck property pinning [Journal.scan]'s
   verdict on every single-byte mutation, idle-TTL eviction under
   persistence, the fault-plan DSL, and a chaos-proxied smoke run whose
   drops must classify as transport failures, never divergence.

   The slow variants (stride-1 fsync/EIO sweeps, the chunked crash
   sweep) only run with JIM_SLOW_TESTS=1 — see the CI chaos job. *)

module Pr = Jim_api.Protocol
module Service = Jim_server.Service
module Wire = Jim_server.Wire
module Smoke = Jim_server.Smoke
module Chaos = Jim_server.Chaos
module Store = Jim_store.Store
module Journal = Jim_store.Journal
module Event = Jim_store.Event
module Recovery = Jim_store.Recovery
module Plan = Jim_fault.Plan
module Memfs = Jim_fault.Memfs
module Sweep = Jim_fault.Sweep
open Jim_core

let slow_enabled =
  match Sys.getenv_opt "JIM_SLOW_TESTS" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let if_slow cases = if slow_enabled then cases else []

(* ------------------------------------------------------------------ *)
(* The fault plan DSL                                                  *)

let sample_plans =
  [
    Plan.none;
    { Plan.none with crash_write = Some (7, 3) };
    { Plan.none with fail_write = Some 3; write_chunk = Some 5 };
    { Plan.none with short_write = Some (5, 2); fail_fsync = Some 2 };
    { Plan.none with enospc_after = Some 4096 };
    {
      Plan.fail_write = Some 1;
      short_write = Some (2, 1);
      write_chunk = Some 3;
      fail_fsync = Some 4;
      enospc_after = Some 512;
      crash_write = Some (9, 0);
    };
  ]

let test_plan_roundtrip () =
  List.iter
    (fun p ->
      let s = Plan.to_string p in
      match Plan.of_string s with
      | Ok p' ->
        Alcotest.(check string) ("roundtrip: " ^ s) s (Plan.to_string p')
      | Error e -> Alcotest.failf "parse %S: %s" s e)
    sample_plans;
  (match Plan.of_string "none" with
  | Ok p -> Alcotest.(check string) "none" "none" (Plan.to_string p)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Plan.of_string bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "frob=1"; "crash-write=x"; "fail-write"; "short-write=3"; "enospc=-1" ]

let test_chaos_plan_roundtrip () =
  List.iter
    (fun s ->
      match Chaos.plan_of_string s with
      | Ok p -> Alcotest.(check string) ("roundtrip: " ^ s) s (Chaos.plan_to_string p)
      | Error e -> Alcotest.failf "parse %S: %s" s e)
    [ "none"; "drop=5"; "drop=5,drop-lines=4"; "trickle=7,partial=3,stall=11"; "drop=2,delay-ms=0" ];
  List.iter
    (fun bad ->
      match Chaos.plan_of_string bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "drop"; "drop=0"; "chop=3"; "delay-ms=x" ]

(* ------------------------------------------------------------------ *)
(* Memfs semantics: the page-cache model the sweeps rely on            *)

let write_str file s =
  let buf = Bytes.of_string s in
  let len = Bytes.length buf in
  let rec go off =
    if off < len then go (off + file.Jim_store.Io.write buf off (len - off))
  in
  go 0

let read_on fs path =
  let io = Memfs.io fs in
  match io.Jim_store.Io.read_file path with
  | Ok data -> Some data
  | Error _ -> None

let test_memfs_page_cache () =
  let fs = Memfs.create () in
  let io = Memfs.io fs in
  io.Jim_store.Io.mkdir_p "/d";
  let f = io.Jim_store.Io.create "/d/a" in
  write_str f "hello";
  f.Jim_store.Io.fsync ();
  write_str f " world";
  (* cache view sees everything; the durable image only the fsynced
     prefix; the flushed image everything *)
  Alcotest.(check (option string)) "cache" (Some "hello world") (Memfs.file fs "/d/a");
  Alcotest.(check (option string))
    "durable image drops unsynced" (Some "hello")
    (Memfs.file (Memfs.durable_image fs) "/d/a");
  Alcotest.(check (option string))
    "flushed image keeps the tail" (Some "hello world")
    (Memfs.file (Memfs.flushed_image fs) "/d/a");
  f.Jim_store.Io.close ()

let test_memfs_rename_atomic () =
  let fs = Memfs.create () in
  let io = Memfs.io fs in
  io.Jim_store.Io.mkdir_p "/d";
  let f = io.Jim_store.Io.create "/d/a.tmp" in
  write_str f "payload";
  f.Jim_store.Io.fsync ();
  f.Jim_store.Io.close ();
  io.Jim_store.Io.rename "/d/a.tmp" "/d/a";
  let img = Memfs.durable_image fs in
  Alcotest.(check (option string)) "renamed content" (Some "payload")
    (Memfs.file img "/d/a");
  Alcotest.(check (option string)) "old name gone" None (Memfs.file img "/d/a.tmp");
  let entries = Array.to_list ((Memfs.io img).Jim_store.Io.readdir "/d") in
  Alcotest.(check bool) "readdir sees it" true
    (List.mem "a" entries && not (List.mem "a.tmp" entries))

let test_memfs_crash_write () =
  let plan = { Plan.none with crash_write = Some (2, 3) } in
  let fs = Memfs.create ~plan () in
  let io = Memfs.io fs in
  let f = io.Jim_store.Io.create "/a" in
  write_str f "first";
  f.Jim_store.Io.fsync ();
  (match write_str f "second" with
  | () -> Alcotest.fail "write survived the power cut"
  | exception Memfs.Power_cut -> ());
  (* the fs is dead now *)
  (match io.Jim_store.Io.read_file "/a" with
  | exception Memfs.Power_cut -> ()
  | Ok _ | Error _ -> Alcotest.fail "read survived the power cut");
  (* 3 bytes of the torn write reached the cache, none were synced *)
  Alcotest.(check (option string)) "flushed: torn tail" (Some "firstsec")
    (Memfs.file (Memfs.flushed_image fs) "/a");
  Alcotest.(check (option string)) "durable: cut at the barrier" (Some "first")
    (Memfs.file (Memfs.durable_image fs) "/a")

let test_memfs_enospc () =
  let plan = { Plan.none with enospc_after = Some 4 } in
  let fs = Memfs.create ~plan () in
  let io = Memfs.io fs in
  let f = io.Jim_store.Io.create "/a" in
  match write_str f "abcdefgh" with
  | () -> Alcotest.fail "wrote past the byte budget"
  | exception Unix.Unix_error (Unix.ENOSPC, _, _) ->
    (* the budgeted prefix was accepted before the disk filled *)
    Alcotest.(check (option string)) "accepted prefix" (Some "abcd")
      (read_on fs "/a")

(* ------------------------------------------------------------------ *)
(* The simulated crash sweeps: the acceptance bar                      *)

(* Every sweep family runs the same >= 50-event, two-strategy workload
   (Sweep.default: 7 sessions, lookahead-entropy/random) and verifies
   both post-crash disk images per faulted run; any contract violation
   raises Divergence with the provoking plan in the message. *)
let check_stats name ?(images_per_run = 2) (st : Sweep.stats) =
  if st.Sweep.events < 50 then
    Alcotest.failf "%s: only %d events journaled (need >= 50)" name
      st.Sweep.events;
  Alcotest.(check bool) (name ^ ": swept some points") true (st.Sweep.points > 0);
  Alcotest.(check int)
    (name ^ ": both images verified per run")
    (images_per_run * st.Sweep.runs)
    st.Sweep.images

let test_crash_sweep_every_boundary () =
  (* Power cut at EVERY write ordinal of the reference run, twice each:
     a clean cut at the boundary and a torn tail 3 bytes in. *)
  let st = Sweep.crash_sweep Sweep.default in
  check_stats "crash sweep" st;
  Alcotest.(check int) "clean cut + torn tail per boundary"
    (2 * st.Sweep.points) st.Sweep.runs

let test_fsync_sweep () =
  check_stats "fsync sweep" (Sweep.fsync_sweep ~stride:3 Sweep.default)

let test_write_error_sweep () =
  check_stats "write error sweep" (Sweep.write_error_sweep ~stride:3 Sweep.default)

let test_enospc_sweep () = check_stats "enospc sweep" (Sweep.enospc_sweep Sweep.default)

let test_chunk_run () =
  (* chunk=3 makes every record span many short writes; the retry loops
     must reassemble a bit-identical journal. *)
  check_stats "chunk run" (Sweep.chunk_run ~chunk:3 Sweep.default)

let test_crash_sweep_shared_catalog () =
  (* The same crash sweep, but every service — faulted runs and recovery
     verifications alike — resolves through one long-lived shared
     catalog: recoveries warm-start off shared entries and the
     bit-identity contract must hold unchanged.
     The whole sweep derives each of the 7 instances exactly once. *)
  let catalog = Jim_catalog.Catalog.create () in
  let st = Sweep.crash_sweep ~catalog ~stride:7 Sweep.default in
  check_stats "crash sweep (shared catalog)" st;
  let s = Jim_catalog.Catalog.stats catalog in
  Alcotest.(check int) "one entry per instance across the whole sweep"
    Sweep.default.Sweep.sessions s.Jim_api.Protocol.entries;
  Alcotest.(check int) "derived once per instance"
    Sweep.default.Sweep.sessions s.Jim_api.Protocol.derivations;
  Alcotest.(check bool) "hundreds of warm restarts" true
    (s.Jim_api.Protocol.hits > s.Jim_api.Protocol.misses)

let test_replicated_sweep () =
  (* The failover drill: a primary/standby pair joined by the journal
     stream, the primary power-cut at every 3rd write ordinal (clean cut
     + torn tail 3 bytes in), the standby promoted and held to the same
     three-part contract as a recovered disk image.  One promoted
     standby per run. *)
  let st = Sweep.replicated_sweep ~stride:3 Sweep.default in
  check_stats "replicated sweep" ~images_per_run:1 st;
  Alcotest.(check int) "clean cut + torn tail per boundary"
    (2 * st.Sweep.points) st.Sweep.runs

(* The instance-reference path: sessions alternate over two instances
   shipped as inline CSV and start one per round, so later Starteds on
   an instance are journaled as [Catalog fp] references — within one
   generation and after checkpoints — and snapshots hold each text once.
   A cut at every write boundary must still recover bit-identically, on
   a disk image and on a promoted standby.  Eight sessions, because seven
   on these two instances journal fewer than the 50 events the sweeps
   require. *)
let shared_inline =
  { Sweep.default with Sweep.shared_inline = true; sessions = 8 }

let test_crash_sweep_shared_inline () =
  let st = Sweep.crash_sweep shared_inline in
  check_stats "crash sweep (shared inline)" st;
  Alcotest.(check int) "clean cut + torn tail per boundary"
    (2 * st.Sweep.points) st.Sweep.runs

let test_replicated_sweep_shared_inline () =
  check_stats "replicated sweep (shared inline)" ~images_per_run:1
    (Sweep.replicated_sweep shared_inline)

let test_crowd_crash_sweep () =
  (* The crowd-labeled workload under power cuts: every answer arrives
     as a 3-ballot unanimous vote, so each crash point lands at an
     aggregate-record boundary — mid-vote-collection.  Both post-crash
     images are recovered into a service WITHOUT crowd labeling: the
     journal must replay as plain answers (no ballot, no partial tally
     ever reaches disk) and resume bit-identically. *)
  let st = Sweep.crowd_crash_sweep ~stride:3 Sweep.default in
  check_stats "crowd crash sweep" st;
  Alcotest.(check int) "clean cut + torn tail per boundary"
    (2 * st.Sweep.points) st.Sweep.runs

let test_crowd_replicated_run () =
  (* The replication stream of a crowd-labeled primary carries only the
     journaled aggregates; the promoted standby (no crowd machinery)
     must resume every session bit-identically. *)
  check_stats "crowd replicated run" ~images_per_run:1
    (Sweep.crowd_replicated_run Sweep.default)

let test_crowd_crash_sweep_full () =
  check_stats "crowd crash sweep (stride 1)"
    (Sweep.crowd_crash_sweep Sweep.default)

(* Slow variants: no strides, plus crashes inside chunked writes. *)

let test_fsync_sweep_full () =
  check_stats "fsync sweep (stride 1)" (Sweep.fsync_sweep Sweep.default)

let test_write_error_sweep_full () =
  check_stats "write error sweep (stride 1)"
    (Sweep.write_error_sweep Sweep.default)

let test_crash_sweep_chunked () =
  (* write-chunk=3 multiplies the write boundaries ~25x; stride over
     them (coprime to the record structure) and add a mid-chunk tear. *)
  let st = Sweep.crash_sweep ~chunk:3 ~stride:37 ~applied:[ 0; 1 ] Sweep.default in
  check_stats "chunked crash sweep" st

let test_replicated_sweep_full () =
  (* Every write ordinal — the primary killed at every record boundary
     and torn mid-record, a promotion verified for each. *)
  check_stats "replicated sweep (stride 1)" ~images_per_run:1
    (Sweep.replicated_sweep Sweep.default)

(* ------------------------------------------------------------------ *)
(* qcheck: Journal.scan's verdict on every single-byte mutation        *)

let sg_pool =
  Array.map
    (fun s ->
      match Jim_partition.Partition.of_string s with
      | Ok p -> p
      | Error e -> failwith e)
    [| "{0}{1}{2}{3}{4}"; "{0,1}{2,3,4}"; "{0,2}{1}{3,4}"; "{0,1,2,3,4}" |]

let event_gen =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map
            (fun (session, seed) ->
              Event.Started
                {
                  session;
                  arity = 5;
                  source = Pr.Builtin "flights";
                  strategy = "random";
                  seed;
                  fingerprint = "cafe0001";
                })
            (pair (int_bound 9) (int_bound 99)) );
        ( 5,
          map
            (fun (session, cls, i) ->
              Event.Answered
                {
                  session;
                  cls;
                  sg = sg_pool.(i);
                  label = (if i mod 2 = 0 then State.Pos else State.Neg);
                })
            (triple (int_bound 9) (int_bound 9) (int_bound 3)) );
        (1, map (fun session -> Event.Undone { session }) (int_bound 9));
        (1, map (fun session -> Event.Ended { session }) (int_bound 9));
      ])

let mutation_arb =
  QCheck.make
    ~print:(fun (events, pos, xor) ->
      Printf.sprintf "%d events, byte %d xor 0x%02x" (List.length events) pos xor)
    QCheck.Gen.(
      triple (list_size (int_range 1 25) event_gen) (int_bound 99_999)
        (int_range 1 255))

(* Journal a random event sequence through the fault filesystem, flip
   one byte, and check the scan verdict: [Truncated] exactly when the
   damage lands in the final record (and then at the final record's
   offset, with the intact prefix returned); otherwise [`Corrupt] naming
   the offset of the record that was hit (0 for the file header). *)
let scan_classifies_mutations =
  QCheck.Test.make ~count:250 ~name:"single-byte damage: torn iff final record"
    mutation_arb (fun (events, pos, xor) ->
      let path = "/j.wal" in
      let fs = Memfs.create () in
      let io = Memfs.io fs in
      let j = Journal.create ~fsync:false ~io path in
      List.iter (fun ev -> Journal.append j (Event.to_string ev)) events;
      Journal.close j;
      let data =
        match Memfs.file fs path with
        | Some d -> d
        | None -> QCheck.Test.fail_report "journal vanished"
      in
      let offsets =
        match Journal.scan ~io path with
        | Ok (records, Journal.Complete) -> List.map fst records
        | Ok (_, Journal.Truncated _) ->
          QCheck.Test.fail_report "pristine journal reported torn"
        | Error (`Corrupt (off, m)) ->
          QCheck.Test.fail_reportf "pristine journal corrupt at %d: %s" off m
      in
      let size = String.length data in
      let i = pos mod size in
      let final = List.fold_left max 0 offsets in
      let victim =
        (* the record containing byte [i]; 0 for the file header *)
        if i < Journal.header_size then 0
        else
          List.fold_left
            (fun acc o -> if o <= i then max acc o else acc)
            Journal.header_size offsets
      in
      let mutated = Bytes.of_string data in
      Bytes.set mutated i (Char.chr (Char.code data.[i] lxor xor));
      let fs' = Memfs.create () in
      Memfs.set_file fs' path (Bytes.to_string mutated);
      match Journal.scan ~io:(Memfs.io fs') path with
      | Error (`Corrupt (off, _)) ->
        if off <> victim then
          QCheck.Test.fail_reportf
            "byte %d sits in the record at %d, corruption reported at %d" i
            victim off
        else true
      | Ok (records, Journal.Truncated { offset; _ }) ->
        if i < final then
          QCheck.Test.fail_reportf
            "byte %d damaged a non-final record (final starts at %d) yet \
             scan reports a torn tail — acknowledged history dropped"
            i final
        else if offset <> final then
          QCheck.Test.fail_reportf "torn at %d, final record starts at %d"
            offset final
        else if List.map fst records <> List.filter (fun o -> o < final) offsets
        then QCheck.Test.fail_report "torn-tail scan lost part of the prefix"
        else true
      | Ok (_, Journal.Complete) ->
        QCheck.Test.fail_reportf "byte %d flipped by 0x%02x scanned clean" i xor)

(* ------------------------------------------------------------------ *)
(* Idle-TTL eviction under persistence                                 *)

let oracle_of seed =
  let p =
    { Jim_workloads.Synthetic.n_attrs = 5; n_tuples = 40; domain = 8; goal_rank = 2; seed }
  in
  Oracle.of_goal (Jim_workloads.Synthetic.generate p).Jim_workloads.Synthetic.goal

let start_on service ~seed ~strategy =
  match
    Service.handle service
      (Pr.Start_session
         {
           source =
             Pr.Synthetic
               { n_attrs = 5; n_tuples = 40; domain = 8; goal_rank = 2; seed };
           strategy;
           seed;
         })
  with
  | Pr.Started { session; _ } -> session
  | other -> Alcotest.failf "start failed: %s" (Pr.response_to_string other)

let answer_one service oracle id =
  match Service.handle service (Pr.Get_question { session = id }) with
  | Pr.Question None -> false
  | Pr.Question (Some { Pr.cls; sg; _ }) -> (
    match
      Service.handle service
        (Pr.Answer { session = id; cls; label = Oracle.label oracle sg })
    with
    | Pr.Answered _ -> true
    | other -> Alcotest.failf "answer failed: %s" (Pr.response_to_string other))
  | other -> Alcotest.failf "question failed: %s" (Pr.response_to_string other)

let test_ttl_sweep_persists () =
  let fs = Memfs.create () in
  let io = Memfs.io fs in
  let store, recovered =
    match Store.open_dir ~io "/data" with
    | Ok v -> v
    | Error e -> Alcotest.failf "open_dir: %s" e
  in
  Alcotest.(check int) "fresh store" 0 (List.length recovered.Recovery.sessions);
  let clock = ref 0.0 in
  let ended = Hashtbl.create 8 in
  let persist ev =
    (match ev with
    | Event.Ended { session } ->
      Hashtbl.replace ended session (1 + Option.value ~default:0 (Hashtbl.find_opt ended session))
    | _ -> ());
    Store.record store ev
  in
  let service =
    Service.create ~idle_ttl:60. ~now:(fun () -> !clock) ~persist ()
  in
  let a = start_on service ~seed:7 ~strategy:"random" in
  Alcotest.(check bool) "a answered" true (answer_one service (oracle_of 7) a);
  clock := 50.;
  let b = start_on service ~seed:8 ~strategy:"lookahead-entropy" in
  clock := 120.;
  (* touch b so only a is past the TTL when the sweeper runs *)
  Alcotest.(check bool) "b answered" true (answer_one service (oracle_of 8) b);
  clock := 130.;
  Alcotest.(check int) "one session evicted" 1 (Service.sweep service);
  Alcotest.(check (option int)) "eviction journaled Ended once" (Some 1)
    (Hashtbl.find_opt ended a);
  Alcotest.(check (option int)) "survivor not ended" None (Hashtbl.find_opt ended b);
  (match Service.handle service (Pr.Get_question { session = a }) with
  | Pr.Failed (Pr.Unknown_session _) -> ()
  | other ->
    Alcotest.failf "evicted session answered: %s" (Pr.response_to_string other));
  (* idempotent: a second sweep neither evicts nor re-journals *)
  Alcotest.(check int) "second sweep finds nothing" 0 (Service.sweep service);
  Alcotest.(check (option int)) "still exactly one Ended" (Some 1)
    (Hashtbl.find_opt ended a);
  Store.close store;
  (* restart over the same disk: the eviction survived the journal *)
  let store', recovered' =
    match Store.open_dir ~io "/data" with
    | Ok v -> v
    | Error e -> Alcotest.failf "reopen: %s" e
  in
  let ids = List.map (fun s -> s.Recovery.id) recovered'.Recovery.sessions in
  Alcotest.(check (list int)) "only the survivor recovered" [ b ] ids;
  let service' = Service.create ~persist:(Store.record store') () in
  (match Service.restore service' recovered' with
  | Ok n -> Alcotest.(check int) "one session restored" 1 n
  | Error e -> Alcotest.failf "restore: %s" e);
  (match Service.handle service' (Pr.Get_question { session = a }) with
  | Pr.Failed (Pr.Unknown_session _) -> ()
  | other ->
    Alcotest.failf "swept session resumed after restart: %s"
      (Pr.response_to_string other));
  Alcotest.(check bool) "survivor resumes" true
    (match Service.handle service' (Pr.Get_question { session = b }) with
    | Pr.Question _ -> true
    | _ -> false);
  Store.close store'

(* ------------------------------------------------------------------ *)
(* Chaos proxy end-to-end: drops classify as transport, never as       *)
(* divergence                                                          *)

let fresh_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jim-fault-%d-%d.sock" (Unix.getpid ()) !counter)

(* Shared by the line- and binary-framing cases: the fault modes apply
   at reply granularity under both, so the assertions are identical. *)
let chaos_proxy_smoke framing () =
  let upstream = Wire.Unix_path (fresh_socket ()) in
  let listen = Wire.Unix_path (fresh_socket ()) in
  let node = Serving.start Serving.memory upstream in
  let plan =
    (* delay-ms=0: exercise the ragged-delivery paths without sleeping *)
    match Chaos.plan_of_string "drop=3,trickle=5,partial=7,delay-ms=0" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let proxy =
    match Chaos.start ~plan ~listen ~upstream () with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Chaos.stop proxy);
      Jim_shard.Node.stop node)
    (fun () ->
      let reports = Smoke.run ~clients:8 ~framing ~address:listen () in
      Alcotest.(check int) "all clients reported" 8 (List.length reports);
      let dropped, rest = List.partition (fun r -> r.Smoke.dropped) reports in
      List.iter
        (fun r ->
          if not r.Smoke.ok then
            Alcotest.failf "seed %d diverged through the proxy: %s"
              r.Smoke.seed r.Smoke.detail)
        rest;
      (* connections 3 and 6 of 8 hit the drop fault *)
      Alcotest.(check int) "two clients dropped" 2 (List.length dropped);
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d drop is transport-level" r.Smoke.seed)
            false r.Smoke.ok)
        dropped;
      let st = Chaos.stats proxy in
      Alcotest.(check int) "proxy saw every connection" 8 st.Chaos.connections;
      Alcotest.(check int) "proxy cut two" 2 st.Chaos.dropped;
      (* the ragged delivery modes really fired *)
      Alcotest.(check bool) "trickle fired" true (st.Chaos.trickled >= 1);
      Alcotest.(check bool) "partial fired" true (st.Chaos.chopped >= 1))

(* The pipelined drill through the proxy: each connection multiplexes 8
   sessions, so its requests arrive in coalesced bursts and the server's
   replies come back in batched frames.  The proxy relays those batched
   frames and cuts connection 3 of 4 at a reply boundary ([drop_lines] =
   2): all 8 of that connection's sessions must classify as transport
   drops, and every session on the surviving connections must stay
   bit-identical — batching must never turn a cut into a divergence. *)
let chaos_proxy_pipelined framing () =
  let upstream = Wire.Unix_path (fresh_socket ()) in
  let listen = Wire.Unix_path (fresh_socket ()) in
  let node = Serving.start Serving.memory upstream in
  let plan =
    match Chaos.plan_of_string "drop=3" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let proxy =
    match Chaos.start ~plan ~listen ~upstream () with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Chaos.stop proxy);
      Jim_shard.Node.stop node)
    (fun () ->
      let reports =
        Smoke.run_pipelined ~clients:4 ~pipeline:8 ~framing ~address:listen ()
      in
      Alcotest.(check int) "all sessions reported" 32 (List.length reports);
      let dropped, rest = List.partition (fun r -> r.Smoke.dropped) reports in
      List.iter
        (fun r ->
          if not r.Smoke.ok then
            Alcotest.failf "seed %d diverged through the proxy: %s"
              r.Smoke.seed r.Smoke.detail)
        rest;
      Alcotest.(check int) "the cut connection's 8 sessions dropped" 8
        (List.length dropped);
      let st = Chaos.stats proxy in
      Alcotest.(check int) "proxy saw every connection" 4 st.Chaos.connections;
      Alcotest.(check int) "proxy cut one" 1 st.Chaos.dropped)

(* Shutting the proxy down must not wait on its clients: a connection
   whose client never sends a byte (or went quiet mid-session) ends when
   {!Chaos.stop} shuts its socket down.  [jim chaos] takes this path on
   SIGTERM and SIGINT, after its handler has called {!Chaos.shutdown}. *)
let chaos_stop_ends_idle_connections () =
  let listen = Wire.Unix_path (fresh_socket ()) in
  let upstream = Wire.Unix_path (fresh_socket ()) in
  let node = Serving.start Serving.memory upstream in
  let proxy =
    match Chaos.start ~plan:Chaos.plan_none ~listen ~upstream () with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let silent =
    let fd = Wire.socket_for listen in
    Unix.connect fd (Wire.sockaddr_of listen);
    fd
  in
  let quiet =
    match Wire.connect listen with Ok c -> c | Error e -> Alcotest.fail e
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close silent with Unix.Unix_error _ -> ());
      Wire.close quiet;
      Jim_shard.Node.stop node)
    (fun () ->
      (match Wire.call quiet Pr.Catalog_stats with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "stats through the proxy: %s" e);
      Chaos.shutdown proxy;
      Chaos.wait proxy;
      let stopped = ref None in
      ignore (Thread.create (fun () -> stopped := Some (Chaos.stop proxy)) ());
      let deadline = Unix.gettimeofday () +. 5. in
      while !stopped = None && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      match !stopped with
      | None -> Alcotest.fail "stop still joining idle connections after 5 s"
      | Some st ->
        Alcotest.(check int) "both connections counted" 2 st.Chaos.connections)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fault"
    ([
       ( "plan",
         [
           Alcotest.test_case "DSL roundtrip and rejects" `Quick
             test_plan_roundtrip;
           Alcotest.test_case "chaos DSL roundtrip and rejects" `Quick
             test_chaos_plan_roundtrip;
         ] );
       ( "memfs",
         [
           Alcotest.test_case "page cache vs durable prefix" `Quick
             test_memfs_page_cache;
           Alcotest.test_case "rename is atomic and durable" `Quick
             test_memfs_rename_atomic;
           Alcotest.test_case "power cut mid-write tears the tail" `Quick
             test_memfs_crash_write;
           Alcotest.test_case "enospc honours the byte budget" `Quick
             test_memfs_enospc;
         ] );
       ( "sweep",
         [
           Alcotest.test_case "power cut at every write boundary" `Quick
             test_crash_sweep_every_boundary;
           Alcotest.test_case "failed fsync poisons, never loses" `Quick
             test_fsync_sweep;
           Alcotest.test_case "EIO on write poisons, never loses" `Quick
             test_write_error_sweep;
           Alcotest.test_case "disk full mid-record" `Quick test_enospc_sweep;
           Alcotest.test_case "short-write retries reassemble" `Quick
             test_chunk_run;
           Alcotest.test_case "crash sweep through a shared catalog" `Quick
             test_crash_sweep_shared_catalog;
           Alcotest.test_case "replicated pair: promote at crash points" `Quick
             test_replicated_sweep;
           Alcotest.test_case "crowd votes: crash at aggregate boundaries"
             `Quick test_crowd_crash_sweep;
           Alcotest.test_case "crowd votes: replicated standby bit-identity"
             `Quick test_crowd_replicated_run;
           Alcotest.test_case "shared inline instance: crash at every boundary"
             `Quick test_crash_sweep_shared_inline;
           Alcotest.test_case "shared inline instance: replicated, promote"
             `Quick test_replicated_sweep_shared_inline;
         ]
         @ if_slow
             [
               Alcotest.test_case "failed fsync, every ordinal" `Slow
                 test_fsync_sweep_full;
               Alcotest.test_case "EIO on write, every ordinal" `Slow
                 test_write_error_sweep_full;
               Alcotest.test_case "power cut inside chunked writes" `Slow
                 test_crash_sweep_chunked;
               Alcotest.test_case "crowd crash sweep, every ordinal" `Slow
                 test_crowd_crash_sweep_full;
               Alcotest.test_case "replicated pair, every ordinal" `Slow
                 test_replicated_sweep_full;
             ] );
       ( "journal",
         [ QCheck_alcotest.to_alcotest scan_classifies_mutations ] );
       ( "service",
         [
           Alcotest.test_case "idle TTL eviction journals Ended once" `Quick
             test_ttl_sweep_persists;
         ] );
       ( "chaos",
         [
           Alcotest.test_case "proxied smoke: drops are transport" `Quick
             (chaos_proxy_smoke Wire.Line);
           Alcotest.test_case "proxied smoke, binary frames" `Quick
             (chaos_proxy_smoke Wire.Binary);
           Alcotest.test_case "proxied pipelined smoke: cut at reply boundary"
             `Quick (chaos_proxy_pipelined Wire.Line);
           Alcotest.test_case "proxied pipelined smoke, binary frames" `Quick
             (chaos_proxy_pipelined Wire.Binary);
           Alcotest.test_case "stop ends idle connections" `Quick
             chaos_stop_ends_idle_connections;
         ] );
     ]
    |> List.filter (fun (_, cases) -> cases <> []))
