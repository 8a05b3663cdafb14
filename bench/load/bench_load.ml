(* The closed-loop load bench: the mutating hot path under concurrent
   traffic, pipelining on vs off.

   Every request journals one durable (fsync'd) record — clients
   alternate Answer/Undo on live sessions, so the loop runs in steady
   state forever without finishing a session.  Per row the driver keeps
   [conns] connections fully loaded (closed loop: a reply triggers the
   next request) and reports requests/s plus p50/p95/p99 latency:

     batch=off  one request in flight per connection: one response
                per write, but requests of different connections that
                land in one event-loop turn still share its one journal
                write and fsync barrier.
     batch=on   [pipeline] requests in flight per connection (one per
                session, so per-session ordering is trivial) — a
                connection's pipelined requests share turns, so more
                records ride each barrier, the server coalesces replies
                into shared flushes, and each connection amortises its
                syscalls over the pipeline.

   The store runs on the real filesystem with fsync on: the off rows
   pay the disk the way an unbatched server would.  [--sync-us N]
   swaps in an {!Io} shim that adds [N] microseconds to every fsync —
   a model of a slower sync device (SATA SSD / fs journal / cloud
   block device) for runners whose local NVMe acks a sync faster than
   a thread wakeup.  Both modes pay the same modelled disk; note the
   per-turn barrier batches the off rows too, so on a slow disk the
   spread narrows to the syscall amortisation.

   Run with: dune exec bench/load/bench_load.exe [-- --quick] [--out F]
   Writes BENCH_load.json (schema_version + generated_by + rows), gated
   in CI by bench/gate against the committed baseline. *)

module B = Jim_bench
module P = Jim_api.Protocol
module Node = Jim_shard.Node
module Wire = Jim_server.Wire
module Oracle = Jim_core.Oracle
module Synth = Jim_workloads.Synthetic

(* All threads of a row release together so the wall clock measures the
   loaded steady state, not connection ramp-up. *)
module Barrier = struct
  type t = { lock : Mutex.t; cond : Condition.t; mutable left : int }

  let make n = { lock = Mutex.create (); cond = Condition.create (); left = n }

  let wait b =
    Mutex.lock b.lock;
    b.left <- b.left - 1;
    if b.left = 0 then Condition.broadcast b.cond
    else while b.left > 0 do Condition.wait b.cond b.lock done;
    Mutex.unlock b.lock
end

(* ------------------------------------------------------------------ *)
(* The workload: one shared small synthetic instance (one catalog
   entry, derived once), sessions that answer their first question with
   the oracle's label and then undo it, forever.  Both directions
   journal one record. *)

let instance_seed = 1

let params =
  { Synth.n_attrs = 4; n_tuples = 16; domain = 4; goal_rank = 2; seed = instance_seed }

let source =
  P.Synthetic
    {
      n_attrs = params.Synth.n_attrs;
      n_tuples = params.Synth.n_tuples;
      domain = params.Synth.domain;
      goal_rank = params.Synth.goal_rank;
      seed = params.Synth.seed;
    }

let oracle = lazy (Oracle.of_goal (Synth.generate params).Synth.goal)

type session_reqs = { id : int; answer : string; undo : string }

let setup_session client seed =
  let id = B.start_session client source seed in
  match Wire.call client (P.Get_question { session = id }) with
  | Ok (P.Question (Some { P.cls; sg; _ })) ->
    let label = Oracle.label (Lazy.force oracle) sg in
    {
      id;
      answer = P.request_to_string (P.Answer { session = id; cls; label });
      undo = P.request_to_string (P.Undo { session = id });
    }
  | Ok other -> failwith ("unexpected question reply: " ^ P.response_to_string other)
  | Error e -> failwith ("question: " ^ e)

(* The hot loop only needs to know the reply is an Answered/Undone and
   not an error; a full JSON parse per reply would spend more of the
   bench's CPU in the driver than in the server.  Replies open with the
   constant envelope ["{\"jim\":1,\"resp\":\"<tag>\""], so a prefix
   compare settles it; anything unexpected gets the full parse for the
   error message. *)
let reply_prefix resp tag =
  let s = P.response_to_string resp in
  match String.index_opt s ',' with
  | Some comma when String.length s > comma + String.length tag ->
    String.sub s 0 (comma + 9 + String.length tag)
  | _ -> failwith "unrecognised reply envelope"

let answered_prefix =
  lazy
    (reply_prefix
       (P.Answered
          { finished = false; asked = 0; decided_classes = 0; decided_tuples = 0 })
       "answered")

let undone_prefix = lazy (reply_prefix (P.Undone { asked = 0 }) "undone")

let starts_with ~prefix s =
  let n = String.length prefix in
  String.length s >= n && String.sub s 0 n = prefix

let check_reply line =
  if
    not
      (starts_with ~prefix:(Lazy.force answered_prefix) line
      || starts_with ~prefix:(Lazy.force undone_prefix) line)
  then
    match P.response_of_string line with
    | Ok (P.Answered _) | Ok (P.Undone _) -> ()
    | Ok other -> failwith ("unexpected reply: " ^ P.response_to_string other)
    | Error e -> failwith ("reply: " ^ P.error_to_string e)

(* One connection: [pipeline] sessions, driven in waves — send one
   request per session (buffered into a single flush), then receive the
   [pipeline] in-order replies.  Each session has exactly one request
   in flight, the connection has [pipeline].  Latency is per request,
   from just before its wave's send burst to its reply. *)
let client_run ~pipeline ~waves ~address ~barrier slot =
  let client = B.connect ~framing:Wire.Binary address in
  let sessions =
    List.init pipeline (fun k -> setup_session client ((1000 * slot) + k + 2))
  in
  Barrier.wait barrier;
  let lat = Array.make (waves * pipeline) 0 in
  let i = ref 0 in
  for w = 0 to waves - 1 do
    let t0 = Jim_core.Metrics.now_ns () in
    List.iter
      (fun s ->
        let req = if w land 1 = 0 then s.answer else s.undo in
        match Wire.send_line ~flush:false client req with
        | Ok () -> ()
        | Error e -> failwith ("send: " ^ e))
      sessions;
    List.iter
      (fun _ ->
        match Wire.recv_line client with
        | Ok line ->
          lat.(!i) <- Jim_core.Metrics.now_ns () - t0;
          incr i;
          check_reply line
        | Error e -> failwith ("recv: " ^ e))
      sessions
  done;
  List.iter (fun s -> ignore (Wire.call client (P.End_session { session = s.id }))) sessions;
  Wire.close client;
  lat

let measure ~name ~batch ~conns ~pipeline ~requests_target address =
  let waves = max 2 (requests_target / (conns * pipeline)) in
  let barrier = Barrier.make (conns + 1) in
  let clients =
    B.spawn conns (client_run ~pipeline ~waves ~address ~barrier)
  in
  Barrier.wait barrier;
  let t0 = Unix.gettimeofday () in
  let lat = B.join clients in
  let wall_s = Unix.gettimeofday () -. t0 in
  [
    ("name", B.S name);
    ("batch", B.B batch);
    ("conns", B.D conns);
    ("pipeline", B.D pipeline);
  ]
  @ B.timing ~requests:(conns * pipeline * waves) ~wall_s lat [ 50; 95; 99 ]

(* ------------------------------------------------------------------ *)
(* One server per mode: same event loop, same framing, same store
   layout — only the client's pipeline depth changes between off and
   on. *)

(* [Io.real] with [delay] seconds added to every file fsync — the
   modelled sync device.  Only the journal's fsync sits on the hot
   path, but wrapping every handle keeps the model uniform. *)
let sync_modelled_io delay =
  let real = Jim_store.Io.real in
  let slow (f : Jim_store.Io.file) =
    {
      f with
      Jim_store.Io.fsync =
        (fun () ->
          Thread.delay delay;
          f.Jim_store.Io.fsync ());
    }
  in
  {
    real with
    Jim_store.Io.create = (fun path -> slow (real.Jim_store.Io.create path));
    open_append =
      (fun path ->
        Result.map
          (fun (f, size) -> (slow f, size))
          (real.Jim_store.Io.open_append path));
  }

let with_server ~sync_us name f =
  let dir = B.tmp (name ^ ".d") in
  B.rm_rf dir;
  let io =
    if sync_us > 0 then sync_modelled_io (float_of_int sync_us /. 1e6)
    else Jim_store.Io.real
  in
  let address = Wire.Unix_path (B.tmp (name ^ ".sock")) in
  let node =
    Result.fold ~ok:Fun.id ~error:failwith
      (Node.start
         {
           (Node.config (Node.Primary { data_dir = Some dir; replicate_to = None }))
           with
           listen = address;
           settings = { Node.default_settings with max_sessions = 4096 };
           snapshot_every = 100_000;
           io;
         })
  in
  Fun.protect
    ~finally:(fun () ->
      Printf.eprintf "# %s: %s\n%!" name (Node.stats_line node);
      Node.stop node;
      Jim_server.Netstats.reset ();
      B.rm_rf dir)
    (fun () -> f address)

let () =
  let quick = B.quick () in
  let out = B.out "BENCH_load.json" in
  let conns_list =
    match B.int_flag "--conns" 0 with
    | 0 -> if quick then [ 1; 8 ] else [ 1; 8; 64; 256 ]
    | c -> [ c ]
  in
  let requests_target = if quick then 4_000 else 24_000 in
  let pipeline = B.int_flag "--pipeline" 4 in
  let sync_us = B.int_flag "--sync-us" 0 in
  ignore (Lazy.force oracle);
  let off =
    with_server ~sync_us "off" (fun address ->
        List.map
          (fun conns ->
            measure
              ~name:(Printf.sprintf "mut/c%d/batch=off" conns)
              ~batch:false ~conns ~pipeline:1 ~requests_target address)
          conns_list)
  in
  let on =
    with_server ~sync_us "on" (fun address ->
        List.map
          (fun conns ->
            measure
              ~name:(Printf.sprintf "mut/c%d/batch=on" conns)
              ~batch:true ~conns ~pipeline ~requests_target address)
          conns_list)
  in
  let pairs = List.combine off on in
  let rows = List.concat_map (fun (o, b) -> [ o; b ]) pairs in
  B.print_rows
    [ "name"; "conns"; "pipeline"; "requests"; "rps"; "p50_us"; "p95_us"; "p99_us" ]
    rows;
  (* The acceptance view: batching-on vs batching-off at each width. *)
  List.iter2
    (fun c (o, b) ->
      Printf.printf
        "c%-4d batching speedup %.2fx · on-p99 %.0fus vs 1.5x off-p50 %.0fus\n"
        c
        (B.num b "rps" /. B.num o "rps")
        (B.num b "p99_us")
        (1.5 *. B.num o "p50_us"))
    conns_list pairs;
  B.write_json B.load ~path:out ~header:[ ("sync_us", B.D sync_us) ] rows;
  Printf.printf "wrote %s\n" out
