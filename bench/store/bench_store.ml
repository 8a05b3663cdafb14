(* Durability-cost benchmarks for the session store: journal append
   throughput with the fsync barrier off and on (single writer vs eight
   concurrent writers), the full Store.record hot path, and
   recovery latency from a journal tail vs from a snapshot.

   Run with: dune exec bench/store/bench_store.exe [-- --quick] [--out F]
   Writes the machine-readable BENCH_store.json (schema mirrors
   BENCH_strategies.json: schema_version + generated_by + rows). *)

module B = Jim_bench
module Pr = Jim_api.Protocol
module Service = Jim_server.Service
module Smoke = Jim_server.Smoke
module Node = Jim_shard.Node
module Store = Jim_store.Store
module Journal = Jim_store.Journal
module Event = Jim_store.Event
module Recovery = Jim_store.Recovery
module W = Jim_workloads
open Jim_core

(* [ops]: records appended or events replayed; [bytes]: payload bytes
   through the journal, 0 where none. *)
let row ~name ~ops ~bytes ~wall_s =
  [
    ("name", B.S name);
    ("ops", B.D ops);
    ("wall_s", B.F6 wall_s);
    ("ops_per_s", B.F1 (B.rate ops wall_s));
    ( "mb_per_s",
      B.F3
        (if wall_s <= 0.0 || bytes = 0 then 0.0
         else float_of_int bytes /. 1048576.0 /. wall_s) );
  ]

(* Every row's data directory is a fresh subdirectory of one root. *)
let scratch_root = B.tmp "store"

let scratch =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir = Filename.concat scratch_root (string_of_int !counter) in
    (try Unix.mkdir scratch_root 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Unix.mkdir dir 0o755;
    dir

(* ------------------------------------------------------------------ *)
(* A representative payload: one Answered event over a 5-ary relation,
   the record the hot path writes on every acknowledged answer.         *)

let sample_payload =
  let sg =
    match Jim_partition.Partition.of_string "{0,2}{1}{3,4}" with
    | Ok p -> p
    | Error e -> failwith e
  in
  Event.to_string
    (Event.Answered { session = 17; cls = 42; sg; label = State.Pos })

(* ------------------------------------------------------------------ *)
(* Journal appends                                                     *)

let bench_append ~name ~fsync ~threads ~per_thread =
  let dir = scratch () in
  let j = Journal.create ~fsync (Filename.concat dir "bench.wal") in
  let t0 = Unix.gettimeofday () in
  (if threads = 1 then
     for _ = 1 to per_thread do
       Journal.append j sample_payload
     done
   else
     let spawn _ =
       Thread.create
         (fun () ->
           for _ = 1 to per_thread do
             Journal.append j sample_payload
           done)
         ()
     in
     List.iter Thread.join (List.init threads spawn));
  let wall = Unix.gettimeofday () -. t0 in
  Journal.close j;
  B.rm_rf dir;
  let ops = threads * per_thread in
  row ~name ~ops ~bytes:(ops * String.length sample_payload) ~wall_s:wall

(* ------------------------------------------------------------------ *)
(* The Store.record hot path: encode + shadow update + journal append   *)

let bench_store_record ~name ~fsync ~events =
  let dir = scratch () in
  let store =
    match Store.open_dir ~fsync ~snapshot_every:max_int dir with
    | Ok (s, _) -> s
    | Error e -> failwith e
  in
  Store.record store
    (Event.Started
       {
         session = 1;
         arity = 5;
         source = Pr.Builtin "flights";
         strategy = "random";
         seed = 0;
         fingerprint = "00000000";
       });
  let sg =
    match Jim_partition.Partition.of_string "{0,2}{1}{3,4}" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let window () =
    let t0 = Unix.gettimeofday () in
    for i = 1 to events do
      Store.record store
        (Event.Answered { session = 1; cls = i land 0xff; sg; label = State.Pos });
      (* keep the shadow transcript bounded so the bench measures the log,
         not list growth *)
      if i land 0xff = 0 then Store.record store (Event.Undone { session = 1 })
    done;
    Unix.gettimeofday () -. t0
  in
  (* One window is tens of milliseconds, short enough for host jitter to
     swing it twofold: time windows until at least 5 have run and 250 ms
     have passed, and report the median window. *)
  let rec windows acc elapsed =
    if List.length acc >= 5 && elapsed >= 0.25 then acc
    else
      let w = window () in
      windows (w :: acc) (elapsed +. w)
  in
  let sorted = List.sort compare (windows [] 0.) in
  let wall = List.nth sorted (List.length sorted / 2) in
  Store.close store;
  B.rm_rf dir;
  row ~name ~ops:events ~bytes:0 ~wall_s:wall

(* ------------------------------------------------------------------ *)
(* Recovery latency                                                    *)

(* Each recovery row times well under a millisecond, so a major GC
   slice left pending by the setup would dominate it.  Every row starts
   its timed window from a settled heap. *)
let settle () = Gc.full_major ()

(* Journal [sessions] synthetic sessions of [answers] answers each,
   leaving them live, and return the data directory. *)
let populate ~sessions ~answers =
  let dir = scratch () in
  let store =
    match Store.open_dir ~fsync:false ~snapshot_every:max_int dir with
    | Ok (s, _) -> s
    | Error e -> failwith e
  in
  let sg =
    match Jim_partition.Partition.of_string "{0}{1,3}{2}{4}" with
    | Ok p -> p
    | Error e -> failwith e
  in
  for s = 1 to sessions do
    Store.record store
      (Event.Started
         {
           session = s;
           arity = 5;
           source = Pr.Builtin "flights";
           strategy = "random";
           seed = s;
           fingerprint = "00000000";
         });
    for i = 1 to answers do
      Store.record store
        (Event.Answered { session = s; cls = i; sg; label = State.Neg })
    done
  done;
  (dir, store)

let bench_recovery_journal ~sessions ~answers =
  let dir, store = populate ~sessions ~answers in
  Store.close store;
  settle ();
  let t0 = Unix.gettimeofday () in
  let recovered =
    match Store.open_dir ~fsync:false dir with
    | Ok (s, r) ->
      Store.close s;
      r
    | Error e -> failwith e
  in
  let wall = Unix.gettimeofday () -. t0 in
  assert (List.length recovered.Recovery.sessions = sessions);
  B.rm_rf dir;
  row ~name:"recovery/journal-replay" ~ops:(sessions * (answers + 1)) ~bytes:0
    ~wall_s:wall

let bench_recovery_snapshot ~sessions ~answers =
  let dir, store = populate ~sessions ~answers in
  Store.checkpoint store;
  Store.close store;
  settle ();
  let t0 = Unix.gettimeofday () in
  let recovered =
    match Store.open_dir ~fsync:false dir with
    | Ok (s, r) ->
      Store.close s;
      r
    | Error e -> failwith e
  in
  let wall = Unix.gettimeofday () -. t0 in
  assert (List.length recovered.Recovery.sessions = sessions);
  B.rm_rf dir;
  row ~name:"recovery/snapshot" ~ops:(sessions * (answers + 1)) ~bytes:0
    ~wall_s:wall

(* End-to-end: open the store AND rebuild live Service sessions (replay
   through the engine, the part that actually re-runs inference).        *)
let bench_recovery_service ~sessions =
  let dir = scratch () in
  let durable_node () =
    Result.fold ~ok:Fun.id ~error:failwith
      (Node.create
         {
           (Node.config (Node.Primary { data_dir = Some dir; replicate_to = None }))
           with
           fsync = false;
         })
  in
  let node = durable_node () in
  let total_answers = ref 0 in
  for seed = 1 to sessions do
    let inst = W.Synthetic.generate (Smoke.synthetic_params seed) in
    let oracle = Oracle.of_goal inst.W.Synthetic.goal in
    let session =
      match
        Node.handle node
          (Pr.Start_session
             { source = Smoke.synthetic_source seed; strategy = "random"; seed })
      with
      | Pr.Started { session; _ } -> session
      | other -> failwith (Pr.response_to_string other)
    in
    let rec answer () =
      match Node.handle node (Pr.Get_question { session }) with
      | Pr.Question (Some { Pr.cls; sg; _ }) -> (
        match
          Node.handle node
            (Pr.Answer { session; cls; label = Oracle.label oracle sg })
        with
        | Pr.Answered _ ->
          incr total_answers;
          answer ()
        | other -> failwith (Pr.response_to_string other))
      | Pr.Question None -> ()
      | other -> failwith (Pr.response_to_string other)
    in
    answer ()
  done;
  Node.stop node;
  settle ();
  let t0 = Unix.gettimeofday () in
  let node' = durable_node () in
  let wall = Unix.gettimeofday () -. t0 in
  let restored =
    Option.fold ~none:0 ~some:Service.session_count (Node.service node')
  in
  Node.stop node';
  B.rm_rf dir;
  assert (restored = sessions);
  row ~name:"recovery/service-restore" ~ops:(!total_answers) ~bytes:0
    ~wall_s:wall

let () =
  let out = B.out "BENCH_store.json" in
  let rows =
    [
      bench_append ~name:"append/no-fsync" ~fsync:false ~threads:1
        ~per_thread:(B.scale 50_000);
      bench_append ~name:"append/fsync" ~fsync:true ~threads:1
        ~per_thread:(B.scale 500);
      bench_append ~name:"append/fsync-8-writers" ~fsync:true ~threads:8
        ~per_thread:(B.scale 500);
      bench_store_record ~name:"store-record/no-fsync" ~fsync:false
        ~events:(B.scale 50_000);
      bench_recovery_journal ~sessions:(B.scale 20) ~answers:50;
      bench_recovery_snapshot ~sessions:(B.scale 20) ~answers:50;
      bench_recovery_service ~sessions:(B.scale 10);
    ]
  in
  B.print_rows [ "name"; "ops"; "wall_s"; "ops_per_s"; "mb_per_s" ] rows;
  B.write_json B.store ~path:out
    ~header:[ ("payload_bytes", B.D (String.length sample_payload)) ]
    rows;
  Printf.printf "\nwrote %s\n" out;
  B.rm_rf scratch_root
