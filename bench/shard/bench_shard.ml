(* Sharded-tier benchmarks: what the router front costs over a direct
   connection, how routed throughput scales with shard count, and what
   streaming the journal to a warm standby adds to the persist path.

   Routing rows drive [Stats] on pre-started sessions (cheap to serve,
   so the numbers measure the router hop, not inference).  Replication
   rows drive Started/Ended event pairs through a store's persist path
   with fsync off, so the delta is the replication stream itself, not
   the disk.

   Run with: dune exec bench/shard/bench_shard.exe [-- --quick] [--out F]
   Writes BENCH_shard.json (schema_version + generated_by + rows), gated
   in CI by bench/gate against the committed baseline. *)

module P = Jim_api.Protocol
module Node = Jim_shard.Node
module Wire = Jim_server.Wire
module Router = Jim_shard.Router
module Front = Jim_shard.Front
module Standby = Jim_shard.Standby
module Repl = Jim_shard.Repl
module Store = Jim_store.Store
module Event = Jim_store.Event

type row = {
  name : string;
  clients : int;
  requests : int;
  wall_s : float;
  p50_us : float;
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
    (Printf.sprintf "jim-bench-shard-%d-%s" (Unix.getpid ()) name)

let sock name = Wire.Unix_path (tmp (name ^ ".sock"))

(* ------------------------------------------------------------------ *)
(* Routing rows: Stats throughput direct vs through the router.        *)

let start_session client =
  match
    Wire.call client
      (P.Start_session
         { source = P.Builtin "flights"; strategy = "random"; seed = 7 })
  with
  | Ok (P.Started { session; _ }) -> session
  | Ok other -> failwith ("unexpected reply: " ^ P.response_to_string other)
  | Error e -> failwith ("start: " ^ e)

let client_run ~requests address latencies slot =
  let client =
    match Wire.connect ~retries:50 ~framing:Wire.Binary address with
    | Ok c -> c
    | Error e -> failwith ("connect: " ^ e)
  in
  let session = start_session client in
  let line = P.request_to_string (P.Stats { session }) in
  let lat = Array.make requests 0 in
  for i = 0 to requests - 1 do
    let t0 = Jim_core.Metrics.now_ns () in
    (match Wire.call_line client line with
    | Ok _ -> ()
    | Error e -> failwith ("call: " ^ e));
    lat.(i) <- Jim_core.Metrics.now_ns () - t0
  done;
  ignore (Wire.call client (P.End_session { session }));
  Wire.close client;
  latencies.(slot) <- lat

let measure ~name ~clients ~requests address =
  let latencies = Array.make clients [||] in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun slot ->
        Thread.create (client_run ~requests address latencies) slot)
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let all = Array.concat (Array.to_list latencies) in
  Array.sort compare all;
  {
    name;
    clients;
    requests = clients * requests;
    wall_s = wall;
    p50_us = percentile all 50.0;
    p99_us = percentile all 99.0;
  }

let start_node role listen =
  Result.fold ~ok:Fun.id ~error:failwith
    (Node.start
       {
         (Node.config role) with
         listen;
         settings = { Node.default_settings with max_sessions = 4096 };
       })

let with_shards n f =
  let shards =
    List.init n (fun i ->
        let name = Printf.sprintf "s%d" i in
        let addr = sock name in
        let role = Node.Primary { data_dir = None; replicate_to = None } in
        (name, addr, start_node role addr))
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, _, node) -> Node.stop node) shards)
    (fun () -> f shards)

let with_router shards f =
  let upstreams =
    List.map
      (fun (name, primary, _) -> Front.wire_upstream ~name ~primary ())
      shards
  in
  let addr = sock "router" in
  let node =
    start_node
      (Node.Router { data_dir = None; vnodes = 64; shards = upstreams })
      addr
  in
  Fun.protect ~finally:(fun () -> Node.stop node) (fun () -> f addr)

(* ------------------------------------------------------------------ *)
(* Replication rows: the persist path with and without the stream.     *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let bench_events ~name ~pairs record =
  (* One Started/Ended pair per iteration: the smallest event mix that
     keeps shadow state flat, so the cost stays per-event. *)
  let lat = Array.make (2 * pairs) 0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to pairs - 1 do
    let started =
      Event.Started
        {
          session = i + 1;
          arity = 3;
          source = P.Builtin "flights";
          strategy = "random";
          seed = i;
          fingerprint = "bench";
        }
    in
    let t1 = Jim_core.Metrics.now_ns () in
    record started;
    lat.(2 * i) <- Jim_core.Metrics.now_ns () - t1;
    let t2 = Jim_core.Metrics.now_ns () in
    record (Event.Ended { session = i + 1 });
    lat.((2 * i) + 1) <- Jim_core.Metrics.now_ns () - t2
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Array.sort compare lat;
  {
    name;
    clients = 1;
    requests = 2 * pairs;
    wall_s = wall;
    p50_us = percentile lat 50.0;
    p99_us = percentile lat 99.0;
  }

let bench_record_only ~pairs =
  let dir = tmp "repl-off" in
  rm_rf dir;
  match Store.open_dir ~fsync:false dir with
  | Error e -> failwith e
  | Ok (store, _) ->
    let row =
      bench_events ~name:"repl/record-only" ~pairs (Store.record store)
    in
    Store.close store;
    rm_rf dir;
    row

let bench_record_stream ~pairs =
  let dir = tmp "repl-on" and sdir = tmp "repl-standby" in
  rm_rf dir;
  rm_rf sdir;
  match Store.open_dir ~fsync:false dir with
  | Error e -> failwith e
  | Ok (store, _) ->
    let stb = Standby.create ~fsync:false ~dir:sdir () in
    let repl =
      match Repl.attach store (Repl.of_standby stb) with
      | Ok r -> r
      | Error e -> failwith ("attach: " ^ e)
    in
    let row =
      bench_events ~name:"repl/record+stream" ~pairs (fun ev ->
          Store.record store ev;
          Repl.send repl ev)
    in
    Repl.close repl;
    Standby.close stb;
    Store.close store;
    rm_rf dir;
    rm_rf sdir;
    row

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_of_row r =
  Printf.sprintf
    "    {\"name\":%S,\"clients\":%d,\"requests\":%d,\"wall_s\":%.6f,\
     \"rps\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f}"
    r.name r.clients r.requests r.wall_s (rps r) r.p50_us r.p99_us

let write_json ~path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"schema_version\": 1,\n\
        \  \"generated_by\": \"jim bench shard\",\n\
        \  \"results\": [\n%s\n  ]\n}\n"
        (String.concat ",\n" (List.map json_of_row rows)))

let () =
  let quick = Array.mem "--quick" Sys.argv in
  let out =
    let rec find i =
      if i + 1 >= Array.length Sys.argv then "BENCH_shard.json"
      else if Sys.argv.(i) = "--out" then Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let scale n = if quick then max 1 (n / 10) else n in
  let requests = scale 10_000 in
  let pairs = scale 50_000 in
  let rows =
    with_shards 3 (fun shards ->
        let s0 = match shards with (_, a, _) :: _ -> a | [] -> assert false in
        let direct =
          measure ~name:"route/direct" ~clients:4 ~requests s0
        in
        let routed1 =
          with_router [ List.hd shards ] (fun addr ->
              measure ~name:"route/router-1shard" ~clients:4 ~requests addr)
        in
        let routed3 =
          with_router shards (fun addr ->
              measure ~name:"route/router-3shards" ~clients:4 ~requests addr)
        in
        [ direct; routed1; routed3 ])
    @ [ bench_record_only ~pairs; bench_record_stream ~pairs ]
  in
  Printf.printf "%-22s %8s %10s %12s %10s %10s\n" "benchmark" "clients"
    "requests" "rps" "p50 us" "p99 us";
  List.iter
    (fun r ->
      Printf.printf "%-22s %8d %10d %12.1f %10.1f %10.1f\n" r.name r.clients
        r.requests (rps r) r.p50_us r.p99_us)
    rows;
  write_json ~path:out rows;
  Printf.printf "wrote %s\n" out
