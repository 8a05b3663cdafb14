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

module B = Jim_bench
module P = Jim_api.Protocol
module Node = Jim_shard.Node
module Wire = Jim_server.Wire
module Front = Jim_shard.Front
module Standby = Jim_shard.Standby
module Repl = Jim_shard.Repl
module Store = Jim_store.Store
module Event = Jim_store.Event

let latency_row ~name ~clients ~requests ~wall_s lat =
  [ ("name", B.S name); ("clients", B.D clients) ]
  @ B.timing ~requests ~wall_s lat [ 50; 99 ]

let sock name = Wire.Unix_path (B.tmp (name ^ ".sock"))

(* ------------------------------------------------------------------ *)
(* Routing rows: Stats throughput direct vs through the router.        *)

let measure ~name ~clients ~requests address =
  let wall_s, lat =
    B.stats_load ~framing:Wire.Binary ~clients ~requests address
  in
  latency_row ~name ~clients ~requests:(clients * requests) ~wall_s lat

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
  let wall_s = Unix.gettimeofday () -. t0 in
  Array.sort compare lat;
  latency_row ~name ~clients:1 ~requests:(2 * pairs) ~wall_s lat

let bench_record_only ~pairs =
  let dir = B.tmp "repl-off" in
  B.rm_rf dir;
  match Store.open_dir ~fsync:false dir with
  | Error e -> failwith e
  | Ok (store, _) ->
    let row =
      bench_events ~name:"repl/record-only" ~pairs (Store.record store)
    in
    Store.close store;
    B.rm_rf dir;
    row

let bench_record_stream ~pairs =
  let dir = B.tmp "repl-on" and sdir = B.tmp "repl-standby" in
  B.rm_rf dir;
  B.rm_rf sdir;
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
    B.rm_rf dir;
    B.rm_rf sdir;
    row

let () =
  let out = B.out "BENCH_shard.json" in
  let requests = B.scale 10_000 in
  let pairs = B.scale 50_000 in
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
  B.print_rows [ "name"; "clients"; "requests"; "rps"; "p50_us"; "p99_us" ] rows;
  B.write_json B.shard ~path:out rows;
  Printf.printf "wrote %s\n" out
