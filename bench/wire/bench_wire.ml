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

module P = Jim_api.Protocol
module Node = Jim_shard.Node
module Wire = Jim_server.Wire
module Netstats = Jim_server.Netstats

type row = {
  name : string;
  framing : string;
  clients : int;
  idle_conns : int;
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

let address =
  Wire.Unix_path
    (Filename.concat (Filename.get_temp_dir_name ())
       (Printf.sprintf "jim-bench-wire-%d.sock" (Unix.getpid ())))

let start_session client =
  match
    Wire.call client
      (P.Start_session { source = P.Builtin "flights"; strategy = "random"; seed = 7 })
  with
  | Ok (P.Started { session; _ }) -> session
  | Ok other -> failwith ("unexpected reply: " ^ P.response_to_string other)
  | Error e -> failwith ("start: " ^ e)

(* One client thread: [requests] Stats calls on its own session over its
   own connection, recording each call's latency in ns. *)
let client_run ~framing ~requests latencies slot =
  let client =
    match Wire.connect ~retries:50 ~framing address with
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

let bench_throughput ~name ~framing ~clients ~requests ~idle_conns =
  (* Park [idle_conns] connected-but-silent clients on the loop first:
     with epoll they are invisible; with a thread-per-connection design
     they would each pin a worker. *)
  let idle =
    List.init idle_conns (fun _ ->
        match Wire.connect ~retries:50 address with
        | Ok c -> c
        | Error e -> failwith ("idle connect: " ^ e))
  in
  let latencies = Array.make clients [||] in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun slot ->
        Thread.create (client_run ~framing ~requests latencies) slot)
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  List.iter Wire.close idle;
  let all = Array.concat (Array.to_list latencies) in
  Array.sort compare all;
  {
    name;
    framing = (match framing with Wire.Line -> "line" | Wire.Binary -> "binary");
    clients;
    idle_conns;
    requests = clients * requests;
    wall_s = wall;
    p50_us = percentile all 50.0;
    p99_us = percentile all 99.0;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_of_row r =
  Printf.sprintf
    "    {\"name\":%S,\"framing\":%S,\"clients\":%d,\"idle_conns\":%d,\
     \"requests\":%d,\"wall_s\":%.6f,\"rps\":%.1f,\"p50_us\":%.1f,\
     \"p99_us\":%.1f}"
    r.name r.framing r.clients r.idle_conns r.requests r.wall_s (rps r)
    r.p50_us r.p99_us

let write_json ~path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"schema_version\": 1,\n\
        \  \"generated_by\": \"jim bench wire\",\n\
        \  \"results\": [\n%s\n  ]\n}\n"
        (String.concat ",\n" (List.map json_of_row rows)))

let () =
  let quick = Array.mem "--quick" Sys.argv in
  let out =
    let rec find i =
      if i + 1 >= Array.length Sys.argv then "BENCH_wire.json"
      else if Sys.argv.(i) = "--out" then Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let scale n = if quick then max 1 (n / 10) else n in
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
  let requests = scale 20_000 in
  let idle = scale 1_000 in
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
  Printf.printf "%-22s %8s %8s %10s %12s %10s %10s\n" "benchmark" "clients"
    "idle" "requests" "rps" "p50 us" "p99 us";
  List.iter
    (fun r ->
      Printf.printf "%-22s %8d %8d %10d %12.1f %10.1f %10.1f\n" r.name
        r.clients r.idle_conns r.requests (rps r) r.p50_us r.p99_us)
    rows;
  Printf.printf "\nwire: %s\n" (Netstats.to_string stats);
  write_json ~path:out rows;
  Printf.printf "wrote %s\n" out
