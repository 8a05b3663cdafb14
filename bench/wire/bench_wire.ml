(* Wire-layer benchmarks: request/response throughput and latency of
   the serve loop under both framings, and throughput with a thousand
   idle connections parked on the same event loop (the case the epoll
   rewrite exists for — idle fds must cost nothing).

   Requests are [Stats] on a pre-started builtin session: cheap to
   serve, so the numbers measure framing + event-loop overhead, not
   inference.

   Run with: dune exec bench/wire/bench_wire.exe [-- --quick] [--out F]
   Writes the machine-readable BENCH_wire.json (schema mirrors the
   other BENCH files: schema_version + generated_by + rows). *)

module B = Jim_bench
module Node = Jim_shard.Node
module Wire = Jim_server.Wire
module Netstats = Jim_server.Netstats

let address = Wire.Unix_path (B.tmp "wire.sock")

let bench_throughput ~name ~framing ~clients ~requests ~idle_conns =
  (* Park [idle_conns] connected-but-silent clients on the loop first:
     with epoll they are invisible; with a thread-per-connection design
     they would each pin a worker. *)
  let idle = List.init idle_conns (fun _ -> B.connect address) in
  let wall_s, lat = B.stats_load ~framing ~clients ~requests address in
  List.iter Wire.close idle;
  [
    ("name", B.S name);
    ("framing", B.S (match framing with Wire.Line -> "line" | Wire.Binary -> "binary"));
    ("clients", B.D clients);
    ("idle_conns", B.D idle_conns);
  ]
  @ B.timing ~requests:(clients * requests) ~wall_s lat [ 50; 99 ]

let () =
  let out = B.out "BENCH_wire.json" in
  let node =
    Result.fold ~ok:Fun.id ~error:failwith
      (Node.start
         {
           (Node.config (Node.Primary { data_dir = None; replicate_to = None }))
           with
           listen = address;
           settings = { Node.default_settings with max_sessions = 4096 };
         })
  in
  let requests = B.scale 20_000 in
  let idle = B.scale 1_000 in
  let rows =
    [
      bench_throughput ~name:"rps/line" ~framing:Wire.Line ~clients:4
        ~requests ~idle_conns:0;
      bench_throughput ~name:"rps/binary" ~framing:Wire.Binary ~clients:4
        ~requests ~idle_conns:0;
      bench_throughput ~name:"rps/binary-1k-idle" ~framing:Wire.Binary
        ~clients:4 ~requests ~idle_conns:idle;
    ]
  in
  let stats = Netstats.snapshot () in
  Node.stop node;
  B.print_rows
    [ "name"; "clients"; "idle_conns"; "requests"; "rps"; "p50_us"; "p99_us" ]
    rows;
  Printf.printf "\nwire: %s\n" (Netstats.to_string stats);
  B.write_json B.wire ~path:out rows;
  Printf.printf "wrote %s\n" out
