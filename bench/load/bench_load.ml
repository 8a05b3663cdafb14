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

module P = Jim_api.Protocol
module Node = Jim_shard.Node
module Wire = Jim_server.Wire
module Store = Jim_store.Store
module Oracle = Jim_core.Oracle
module Synth = Jim_workloads.Synthetic

type row = {
  name : string;
  batch : bool;
  conns : int;
  pipeline : int;
  requests : int;
  wall_s : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
}

let rps r = if r.wall_s <= 0.0 then 0.0 else float_of_int r.requests /. r.wall_s

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    float_of_int sorted.(max 0 (min (n - 1) idx)) /. 1000.0

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "jim-bench-load-%d-%s" (Unix.getpid ()) name)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

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

let start_session client seed =
  match Wire.call client (P.Start_session { source; strategy = "random"; seed }) with
  | Ok (P.Started { session; _ }) -> session
  | Ok other -> failwith ("unexpected reply: " ^ P.response_to_string other)
  | Error e -> failwith ("start: " ^ e)

let setup_session client seed =
  let id = start_session client seed in
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
let client_run ~pipeline ~waves ~address ~barrier latencies slot =
  let client =
    match Wire.connect ~retries:50 ~framing:Wire.Binary address with
    | Ok c -> c
    | Error e -> failwith ("connect: " ^ e)
  in
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
  latencies.(slot) <- lat

let measure ~name ~batch ~conns ~pipeline ~requests_target address =
  let waves = max 2 (requests_target / (conns * pipeline)) in
  let latencies = Array.make conns [||] in
  let barrier = Barrier.make (conns + 1) in
  let threads =
    List.init conns (fun slot ->
        Thread.create (client_run ~pipeline ~waves ~address ~barrier latencies) slot)
  in
  Barrier.wait barrier;
  let t0 = Unix.gettimeofday () in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let all = Array.concat (Array.to_list latencies) in
  Array.sort compare all;
  {
    name;
    batch;
    conns;
    pipeline;
    requests = conns * pipeline * waves;
    wall_s = wall;
    p50_us = percentile all 50.0;
    p95_us = percentile all 95.0;
    p99_us = percentile all 99.0;
  }

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
  let dir = tmp (name ^ ".d") in
  rm_rf dir;
  let io =
    if sync_us > 0 then sync_modelled_io (float_of_int sync_us /. 1e6)
    else Jim_store.Io.real
  in
  let address = Wire.Unix_path (tmp (name ^ ".sock")) in
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
      rm_rf dir)
    (fun () -> f address)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_of_row r =
  Printf.sprintf
    "    {\"name\":%S,\"batch\":%b,\"conns\":%d,\"pipeline\":%d,\
     \"requests\":%d,\"wall_s\":%.6f,\"rps\":%.1f,\
     \"p50_us\":%.1f,\"p95_us\":%.1f,\"p99_us\":%.1f}"
    r.name r.batch r.conns r.pipeline r.requests r.wall_s (rps r)
    r.p50_us r.p95_us r.p99_us

let write_json ~path ~sync_us rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"schema_version\": 1,\n\
        \  \"generated_by\": \"jim bench load\",\n\
        \  \"sync_us\": %d,\n\
        \  \"results\": [\n%s\n  ]\n}\n"
        sync_us
        (String.concat ",\n" (List.map json_of_row rows)))

let () =
  let quick = Array.mem "--quick" Sys.argv in
  let out =
    let rec find i =
      if i + 1 >= Array.length Sys.argv then "BENCH_load.json"
      else if Sys.argv.(i) = "--out" then Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let int_flag name default =
    let rec find i =
      if i + 1 >= Array.length Sys.argv then default
      else if Sys.argv.(i) = name then int_of_string Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let conns_list =
    match int_flag "--conns" 0 with
    | 0 -> if quick then [ 1; 8 ] else [ 1; 8; 64; 256 ]
    | c -> [ c ]
  in
  let requests_target = if quick then 4_000 else 24_000 in
  let pipeline = int_flag "--pipeline" 4 in
  let sync_us = int_flag "--sync-us" 0 in
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
  let rows =
    List.concat_map (fun c ->
        List.filter (fun r -> r.conns = c) (off @ on))
      conns_list
  in
  Printf.printf "%-20s %6s %9s %10s %12s %9s %9s %9s\n" "benchmark" "conns"
    "pipeline" "requests" "rps" "p50 us" "p95 us" "p99 us";
  List.iter
    (fun r ->
      Printf.printf "%-20s %6d %9d %10d %12.1f %9.1f %9.1f %9.1f\n" r.name
        r.conns r.pipeline r.requests (rps r) r.p50_us r.p95_us r.p99_us)
    rows;
  (* The acceptance view: batching-on vs batching-off at each width. *)
  List.iter
    (fun c ->
      match
        ( List.find_opt (fun r -> r.conns = c) off,
          List.find_opt (fun r -> r.conns = c) on )
      with
      | Some o, Some b ->
        Printf.printf
          "c%-4d batching speedup %.2fx · on-p99 %.0fus vs 1.5x off-p50 %.0fus\n"
          c (rps b /. rps o) b.p99_us (1.5 *. o.p50_us)
      | _ -> ())
    conns_list;
  write_json ~path:out ~sync_us rows;
  Printf.printf "wrote %s\n" out
