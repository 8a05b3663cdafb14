(* The repository benchmark.  One command spawns real [jim] processes,
   drives one of three workloads against them from this client process,
   checks every reply and every inferred query, and prints the
   end-to-end metrics (or, with [--trace 1], the per-layer ones) as the
   last line of standard output.  See README.md in this directory for the
   workloads, the metrics and what each layer metric should move.

   Usage (from the repository root, after building):
     jimbench.exe --jim PATH --tracer PATH --workload explore|chatty|routed
                  --seed N --seconds S --trace 0|1 *)

module P = Jim_api.Protocol
module Json = Jim_api.Json
module Wire = Jim_server.Wire
module Service = Jim_server.Service
module Catalog = Jim_catalog.Catalog
module Synth = Jim_workloads.Synthetic
module Flights = Jim_workloads.Flights
module Session = Jim_core.Session
module Oracle = Jim_core.Oracle
module Metrics = Jim_core.Metrics
module Partition = Jim_partition.Partition
module Relation = Jim_relational.Relation
module M = Measure

let strategy_name = "lookahead-entropy"

let strategy =
  match Jim_core.Strategy.of_string strategy_name with
  | Ok s -> s
  | Error e -> failwith e

(* Set-ups per run; the median is reported. *)
let setups = 9

(* Sizing: every run does a fixed amount of work, chosen from
   [--seconds] by these nominal rates, and measures how long it takes. *)
let explore_sessions_per_s = 11.
let chatty_ops_per_s = 20000.
let routed_ops_per_s = 12000.

(* chatty/routed: [conns] connections, each pipelining one request per
   session over [pipeline] sessions (the server's default max_pipeline);
   a session lives for [cycles] answer/undo pairs.  Set-up ends with
   [warm_s] nominal seconds of untimed traffic. *)
let conns = 2
let pipeline = 8
let cycles = 6
let warm_s = 0.5

(* explore: the probe's open-loop period. *)
let probe_period_ns = 2_500_000

exception Bench_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Growable sample buffers                                              *)

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let concat bs = Array.concat (List.map (fun b -> Array.sub b.a 0 b.n) bs)
end

(* One connection's record of a timed phase.  Latencies in ns; a
   failed request is recorded as [infinity]. *)
type record = {
  mutable timed : bool;  (** in the timed phase (not warm-up) *)
  starts : Fbuf.t;
  turns : Fbuf.t;
  reads : Fbuf.t;
  writes : Fbuf.t;
  mutable ops : int;
  mutable failed : int;
  mutable sessions : int;
  mutable answers : int;
  mutable acks : int;  (** acknowledged durable requests, timed phase *)
  mutable sent : int;  (** timed phase: request bytes on the socket *)
  mutable recv : int;  (** timed phase: reply bytes on the socket *)
  mutable resp_bytes : int;
  mutable errors : string list;
  mutable spans : (string * int * int) list;
      (** traced runs: (request key, send, reply) per request *)
}

let new_record () =
  {
    timed = false;
    starts = Fbuf.create ();
    turns = Fbuf.create ();
    reads = Fbuf.create ();
    writes = Fbuf.create ();
    ops = 0;
    failed = 0;
    sessions = 0;
    answers = 0;
    acks = 0;
    sent = 0;
    recv = 0;
    resp_bytes = 0;
    errors = [];
    spans = [];
  }

let ack r = if r.timed then r.acks <- r.acks + 1

let note_failure r msg =
  r.failed <- r.failed + 1;
  if List.length r.errors < 5 then r.errors <- msg :: r.errors

(* ------------------------------------------------------------------ *)
(* Files and processes                                                  *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let children : int list ref = ref []

let spawn ~log argv =
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid = Unix.create_process argv.(0) argv Unix.stdin fd fd in
  Unix.close fd;
  children := pid :: !children;
  pid

let rec reap pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5. in
  while not (reap pid) do
    if Unix.gettimeofday () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
    end
    else Unix.sleepf 0.002
  done;
  children := List.filter (( <> ) pid) !children

let stop_all () = List.iter stop !children

(* Readiness: the server prints its "listening on" line once bound; poll
   its log every 2 ms (not [Wire.connect ~retries], whose 100 ms step
   would quantise set-up time). *)
let wait_ready pid log =
  let deadline = Unix.gettimeofday () +. 30. in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let rec poll () =
    if (try contains (read_file log) "listening on" with Sys_error _ -> false)
    then ()
    else if reap pid then begin
      children := List.filter (( <> ) pid) !children;
      fail "server exited before listening: %s"
        (try read_file log with Sys_error _ -> "")
    end
    else if Unix.gettimeofday () > deadline then
      fail "server not listening after 30 s"
    else begin
      Unix.sleepf 0.002;
      poll ()
    end
  in
  poll ()

(* ------------------------------------------------------------------ *)
(* Topologies                                                           *)

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  jim : string;
  tracer : string;
}

type node = {
  name : string;
  pid : int;
  sock : string;
  data : string;
  dump : string;  (** traced nodes: span dump file *)
}

type topology = {
  front : node;  (** the process clients connect to *)
  nodes : node list;  (** every server process *)
}

(* Where data dirs live: tmpfs when there is one, so fsync stays on but
   the runs measure the program and not a disk shared with other
   tenants; the run directory otherwise.  Set once by [main]. *)
let data_root = ref ""

let start_node ~prog ~traced ~dir ~name role extra =
  let sock = Filename.concat dir (name ^ ".sock") in
  let data =
    Filename.concat !data_root
      (String.map (fun c -> if c = '/' then '_' else c) dir ^ "_" ^ name)
  in
  let dump = Filename.concat dir (name ^ ".spans") in
  let argv =
    [ prog; role; "--socket"; sock; "--data-dir"; data ]
    @ extra
    @ if traced then [ "--spans"; dump ] else []
  in
  let log = Filename.concat dir (name ^ ".log") in
  let pid = spawn ~log (Array.of_list argv) in
  wait_ready pid log;
  { name; pid; sock; data; dump }

let start_topology o ~traced ~routed dir =
  let prog = if traced then o.tracer else o.jim in
  if not routed then
    let s = start_node ~prog ~traced ~dir ~name:"serve" "serve" [] in
    { front = s; nodes = [ s ] }
  else begin
    let standby = start_node ~prog ~traced ~dir ~name:"standby" "standby" [] in
    let shard =
      start_node ~prog ~traced ~dir ~name:"shard" "serve"
        [ "--replicate-to"; "unix:" ^ standby.sock ]
    in
    let router =
      start_node ~prog ~traced ~dir ~name:"router" "router"
        [
          "--shard"; "s0=unix:" ^ shard.sock; "--standby";
          "s0=unix:" ^ standby.sock;
        ]
    in
    { front = router; nodes = [ router; shard; standby ] }
  end

let stop_topology t = List.iter (fun n -> stop n.pid) t.nodes

(* A reply overdue by a minute fails the run instead of hanging it. *)
let reply_timeout = 60.

let connect node =
  match Wire.connect ~framing:Wire.Binary (Wire.Unix_path node.sock) with
  | Ok c ->
    Wire.set_timeout c reply_timeout;
    c
  | Error e -> fail "connect %s: %s" node.sock e

let call c req =
  match Wire.call c req with
  | Ok r -> r
  | Error e -> fail "transport: %s" e

(* A raw line-framed exchange, for the control lines a traced node
   intercepts ([#stats], [#dump]). *)
let control node line =
  let c = connect node in
  let reply =
    match Wire.call_line c line with
    | Ok r -> r
    | Error e -> fail "control %s: %s" line e
  in
  Wire.close c;
  match Json.of_string reply with
  | Ok (Json.Obj fields) ->
    List.filter_map
      (fun (k, v) ->
        match Json.as_float v with Ok f -> Some (k, f) | Error _ -> None)
      fields
  | _ -> fail "control %s: bad reply %s" line reply

let proc_read pid file =
  try Some (read_file (Printf.sprintf "/proc/%d/%s" pid file))
  with Sys_error _ -> None

let rss_mb t =
  List.fold_left
    (fun acc n ->
      match Option.bind (proc_read n.pid "status") (fun s ->
                M.proc_field s "VmHWM") with
      | Some kb -> acc +. (float_of_int kb /. 1024.)
      | None -> acc)
    0. t.nodes

(* Summed CPU ticks (process-wide) and context switches (per thread,
   so summed over [/proc/<pid>/task]) of every server process. *)
let proc_counters t =
  List.fold_left
    (fun (cpu, ctx) n ->
      let c = Option.bind (proc_read n.pid "stat") M.cpu_ticks in
      let tasks =
        try Sys.readdir (Printf.sprintf "/proc/%d/task" n.pid) with Sys_error _ -> [||]
      in
      let x =
        Array.fold_left
          (fun acc tid ->
            match
              Option.bind (proc_read n.pid ("task/" ^ tid ^ "/status")) M.ctx_switches
            with
            | Some v -> acc + v
            | None -> acc)
          0 tasks
      in
      (cpu + Option.value c ~default:0, ctx + x))
    (0, 0) t.nodes

(* Summed wchar - rchar of the server processes ([/proc/<pid>/io]). *)
let proc_io t =
  List.fold_left
    (fun acc n ->
      match proc_read n.pid "io" with
      | None -> acc
      | Some io -> (
        match (M.proc_field io "wchar", M.proc_field io "rchar") with
        | Some w, Some r -> acc + w - r
        | _ -> acc))
    0 t.nodes

(* Bytes the server processes wrote to their data dirs in a window: every
   byte one process writes to a socket another reads, so
   sum(wchar) - sum(rchar) over the servers, plus what the client sent,
   minus what it received, leaves the file writes.  (The servers read no
   files while serving, and their wake-pipe bytes are both written and
   read.) *)
let disk_bytes ~io0 ~io1 ~client_sent ~client_recv =
  io1 - io0 + client_sent - client_recv

(* ------------------------------------------------------------------ *)
(* Reply checks                                                         *)

(* Replies open with a constant envelope ["{"jim":1,"resp":"<tag>""], so
   a prefix compare checks the tag without a full parse. *)
let tag_prefix resp =
  let s = P.response_to_string resp in
  let marker = "\"resp\":\"" in
  let m = String.length marker in
  let rec find i =
    if i + m > String.length s then failwith "reply envelope"
    else if String.sub s i m = marker then
      String.index_from s (i + m) '"'
    else find (i + 1)
  in
  String.sub s 0 (find 0 + 1)

let answered_tag =
  tag_prefix
    (P.Answered
       { finished = false; asked = 0; decided_classes = 0; decided_tuples = 0 })

let undone_tag = tag_prefix (P.Undone { asked = 0 })
let ended_tag = tag_prefix P.Ended

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let key sid idx = Printf.sprintf "%d.%d" sid idx

(* ------------------------------------------------------------------ *)
(* Workload: explore                                                    *)

type explore_input = {
  instances : string array;  (** inline CSV *)
  goals : Partition.t array;
  inst : int array;  (** each session's instance *)
  seeds : int array;
}

let csv_of rel =
  let schema = Relation.schema rel in
  let header = Array.to_list (Jim_relational.Schema.names schema) in
  let rows =
    List.map
      (fun t ->
        List.init (Relation.arity rel) (fun i ->
            Jim_relational.Value.to_string (Jim_relational.Tuple0.get t i)))
      (Relation.tuples rel)
  in
  Jim_relational.Csv.print_string (header :: rows)

(* One fixed, paper-scale dataset: 6 attributes at domain 6, 400 to
   1,600 tuples (about 140-200 signature classes; a lookahead-entropy
   pick takes milliseconds).  7 attributes already cost seconds per
   session. *)
let explore_instances = [| (400, 1); (800, 2); (1600, 3); (400, 4); (800, 5); (1600, 6) |]

let explore_input o =
  let rng = Random.State.make [| o.seed; 1 |] in
  let instances =
    Array.map
      (fun (tuples, seed) ->
        csv_of
          (Synth.generate
             { Synth.n_attrs = 6; n_tuples = tuples; domain = 6; goal_rank = 2; seed })
            .Synth.relation)
      explore_instances
  in
  (* The users: every goal predicate of rank 1-4 on the 6 attributes
     (201 of them), goal k on instance k mod 6, in whole passes.  A
     sampled goal mix made the work of a run vary by about 20% from seed
     to seed; with the whole goal space the seed draws the order and the
     session seeds, and every seed asks the same work. *)
  let space =
    Jim_partition.Penum.all 6
    |> List.filter (fun p ->
           let r = Partition.rank p in
           r >= 1 && r <= 4)
    |> List.mapi (fun k g -> (g, k mod Array.length explore_instances))
    |> Array.of_list
  in
  let passes =
    max 1
      (int_of_float
         (explore_sessions_per_s *. float_of_int o.seconds
         /. float_of_int (Array.length space)))
  in
  let order = Array.concat (List.init passes (fun _ -> Array.copy space)) in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let n = Array.length order in
  let goals = Array.map fst order and inst = Array.map snd order in
  let seeds = Array.init n (fun _ -> Random.State.int rng 1_000_000) in
  { instances; goals; inst; seeds }

type explore_setup = {
  topo : topology;
  fps : string array;
  parked : int;
  register_ms : float list;
  first_pick_ms : float list;
  setup_s : float;
}

let explore_setup o ~traced dir input =
  let t0 = Unix.gettimeofday () in
  let topo = start_topology o ~traced ~routed:false dir in
  let c = connect topo.front in
  let timed f =
    let a = M.now_ns () in
    let r = f () in
    (r, float_of_int (M.now_ns () - a) /. 1e6)
  in
  let registered =
    Array.map
      (fun csv ->
        match timed (fun () -> call c (P.Register_instance { source = P.Csv_inline csv })) with
        | P.Registered { fingerprint; _ }, ms -> (fingerprint, ms)
        | other, _ -> fail "register: %s" (P.response_to_string other))
      input.instances
  in
  let start source =
    match call c (P.Start_session { source; strategy = strategy_name; seed = 0 }) with
    | P.Started { session; _ } -> session
    | other -> fail "start: %s" (P.response_to_string other)
  in
  (* The cold first question on each instance fills the catalog's shared
     memo for round 0, as the first user of a dataset would. *)
  let first_pick_ms =
    Array.to_list
      (Array.map
         (fun (fp, _) ->
           let s = start (P.Catalog fp) in
           let ms =
             match timed (fun () -> call c (P.Get_question { session = s })) with
             | P.Question (Some _), ms -> ms
             | other, _ -> fail "first question: %s" (P.response_to_string other)
           in
           ignore (call c (P.End_session { session = s }));
           ms)
         registered)
  in
  let parked = start (P.Builtin "flights") in
  (match call c (P.Get_question { session = parked }) with
  | P.Question (Some _) -> ()
  | other -> fail "parked: %s" (P.response_to_string other));
  Wire.close c;
  {
    topo;
    fps = Array.map fst registered;
    parked;
    register_ms = Array.to_list (Array.map snd registered);
    first_pick_ms;
    setup_s = Unix.gettimeofday () -. t0;
  }

(* A line-framed connection that never blocks the client thread:
   [lconn_fill] reads what has arrived and queues each complete line
   with the time it was read. *)
type lconn = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;
  partial : Buffer.t;
  lines : (string * int) Queue.t;
}

let lconn_open node =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX node.sock)
   with e ->
     Unix.close fd;
     raise e);
  { fd; rbuf = Bytes.create 65536; partial = Buffer.create 4096; lines = Queue.create () }

let lconn_send lc line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring lc.fd s off (n - off)) in
  go 0

let lconn_fill lc =
  let n = Unix.read lc.fd lc.rbuf 0 (Bytes.length lc.rbuf) in
  if n = 0 then fail "server closed the connection";
  let at = M.now_ns () in
  let from = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get lc.rbuf i = '\n' then begin
      Buffer.add_subbytes lc.partial lc.rbuf !from (i - !from);
      Queue.push (Buffer.contents lc.partial, at) lc.lines;
      Buffer.clear lc.partial;
      from := i + 1
    end
  done;
  Buffer.add_subbytes lc.partial lc.rbuf !from (n - !from);
  n

(* The head-of-line probe: cheap memoised reads on a parked session,
   sent open loop every [probe_period_ns] and timed from when each was
   due.  The same thread that runs the sessions sends them, between
   its own requests and while it waits for their replies. *)
type probe = {
  lat : Fbuf.t;
  mutable sent : int;
  mutable bad : int;
  mutable late_ns : int;  (** summed lateness of the generator *)
  mutable late_max_ns : int;
  mutable bytes_out : int;  (** request bytes on the socket *)
  mutable bytes_in : int;  (** reply bytes on the socket *)
}

type prober = {
  p : probe;
  pc : lconn;
  line : string;
  due : int Queue.t;
  mutable expected : string option;
  mutable next : int;  (** when the next read is due *)
  mutable sending : bool;
}

let prober_open node ~session =
  {
    p = { lat = Fbuf.create (); sent = 0; bad = 0; late_ns = 0; late_max_ns = 0;
          bytes_out = 0; bytes_in = 0 };
    pc = lconn_open node;
    line = P.request_to_string (P.Get_question { session });
    due = Queue.create ();
    expected = None;
    next = M.now_ns ();
    sending = true;
  }

(* Send every read that has come due. *)
let prober_tick pr =
  let now = M.now_ns () in
  while pr.sending && now >= pr.next do
    lconn_send pr.pc pr.line;
    let p = pr.p in
    p.bytes_out <- p.bytes_out + String.length pr.line + 1;
    Queue.push pr.next pr.due;
    p.sent <- p.sent + 1;
    let late = now - pr.next in
    p.late_ns <- p.late_ns + late;
    p.late_max_ns <- max p.late_max_ns late;
    pr.next <- pr.next + probe_period_ns
  done

let prober_read pr =
  let p = pr.p in
  p.bytes_in <- p.bytes_in + lconn_fill pr.pc;
  while not (Queue.is_empty pr.pc.lines) do
    let l, at = Queue.pop pr.pc.lines in
    Fbuf.add p.lat (float_of_int (at - Queue.pop pr.due));
    match pr.expected with
    | None ->
      if has_prefix ~prefix:"{\"jim\":1,\"resp\":\"question\"" l then
        pr.expected <- Some l
      else p.bad <- p.bad + 1
    | Some e -> if l <> e then p.bad <- p.bad + 1
  done

(* Serve the probe until [lc] has a reply queued, or [reply_timeout]
   passes without one. *)
let await pr lc =
  let deadline = M.now_ns () + int_of_float (reply_timeout *. 1e9) in
  while Queue.is_empty lc.lines do
    prober_tick pr;
    let now = M.now_ns () in
    if now > deadline then fail "no reply for %.0f s" reply_timeout;
    let wait =
      if pr.sending then float_of_int (max 0 (pr.next - now)) /. 1e9 else 0.05
    in
    match Unix.select [ lc.fd; pr.pc.fd ] [] [] wait with
    | readable, _, _ ->
      if List.mem pr.pc.fd readable then prober_read pr;
      if List.mem lc.fd readable then ignore (lconn_fill lc)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Stop sending and collect every outstanding probe reply. *)
let prober_finish pr =
  pr.sending <- false;
  let deadline = M.now_ns () + int_of_float (reply_timeout *. 1e9) in
  while not (Queue.is_empty pr.due) do
    if M.now_ns () > deadline then fail "probe: no reply for %.0f s" reply_timeout;
    match Unix.select [ pr.pc.fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ -> prober_read pr
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Unix.close pr.pc.fd;
  pr.p

(* One oracle-driven session, closed loop, on [lc] while [pr] keeps
   probing.  Returns the server's outcome for the bit-identity check. *)
let explore_session r pr lc ~trace ~fp ~goal ~seed =
  let oracle = Oracle.of_goal goal in
  let idx = ref 0 in
  let sid = ref (-1) in
  let req q =
    let a = M.now_ns () in
    let line = P.request_to_string q in
    lconn_send lc line;
    await pr lc;
    let reply, b = Queue.pop lc.lines in
    r.ops <- r.ops + 1;
    (* Line framing: a newline after each payload. *)
    r.sent <- r.sent + String.length line + 1;
    r.recv <- r.recv + String.length reply + 1;
    r.resp_bytes <- r.resp_bytes + String.length reply;
    let resp =
      match P.response_of_string reply with
      | Ok resp -> resp
      | Error e -> P.Failed e
    in
    (match resp with P.Started { session; _ } -> sid := session | _ -> ());
    if trace then r.spans <- (key !sid !idx, a, b) :: r.spans;
    incr idx;
    (resp, a, b)
  in
  let bad what resp =
    note_failure r
      (Printf.sprintf "%s: unexpected %s" what (P.response_to_string resp))
  in
  let t0 = M.now_ns () in
  match req (P.Start_session { source = P.Catalog fp; strategy = strategy_name; seed }) with
  | (P.Started _, _, _) -> (
    ack r;
    let session = !sid in
    let rec loop q =
      match q with
      | None -> true
      | Some (qq : P.question) -> (
        let label = Oracle.label oracle qq.P.sg in
        match req (P.Answer { session; cls = qq.P.cls; label }) with
        | (P.Answered _, a, b) -> (
          ack r;
          r.answers <- r.answers + 1;
          Fbuf.add r.writes (float_of_int (b - a));
          match req (P.Get_question { session }) with
          | (P.Question q', _, b') ->
            Fbuf.add r.turns (float_of_int (b' - a));
            loop q'
          | (other, _, _) ->
            Fbuf.add r.turns infinity;
            bad "question" other;
            false)
        | (other, _, _) ->
          Fbuf.add r.writes infinity;
          Fbuf.add r.turns infinity;
          bad "answer" other;
          false)
    in
    let first =
      match req (P.Get_question { session }) with
      | (P.Question q, _, b) ->
        Fbuf.add r.starts (float_of_int (b - t0));
        Some q
      | (other, _, _) ->
        Fbuf.add r.starts infinity;
        bad "first question" other;
        None
    in
    let completed = match first with Some q -> loop q | None -> false in
    let outcome =
      if not completed then None
      else
        match req (P.Result { session }) with
        | (P.Outcome out, _, _) -> Some out
        | (other, _, _) ->
          bad "result" other;
          None
    in
    (match req (P.End_session { session }) with
    | (P.Ended, _, _) ->
      ack r;
      if outcome <> None then r.sessions <- r.sessions + 1
    | (other, _, _) -> bad "end" other);
    outcome)
  | (other, _, _) ->
    Fbuf.add r.starts infinity;
    bad "start" other;
    None

(* In-process reference: [Session.run] on a warm engine off a local
   catalog entry for the same inline CSV — what the server must have
   inferred, bit for bit. *)
let explore_verify input outcomes =
  let cat = Catalog.create () in
  let entries =
    Array.map
      (fun csv ->
        match Catalog.resolve cat (P.Csv_inline csv) with
        | Ok e -> e
        | Error e -> fail "local catalog: %s" (P.error_to_string e))
      input.instances
  in
  let mismatches = ref 0 in
  Array.iteri
    (fun i out ->
      match out with
      | None -> ()
      | Some (server : Session.outcome) ->
        let e = entries.(input.inst.(i)) in
        let goal = input.goals.(i) in
        let local =
          Session.run_engine ~seed:input.seeds.(i) ~strategy
            ~oracle:(Oracle.of_goal goal) (Catalog.engine e)
        in
        let same_outcome =
          Json.to_string (P.outcome_to_json server)
          = Json.to_string (P.outcome_to_json local)
        in
        let rel = e.Catalog.relation in
        let same_tuples =
          Relation.equal_contents
            (Relation.satisfying server.Session.query rel)
            (Relation.satisfying goal rel)
        in
        if not (same_outcome && same_tuples) then incr mismatches)
    outcomes;
  !mismatches

(* ------------------------------------------------------------------ *)
(* Workload: chatty / routed                                            *)

type step = Start | Gq | Ans | Undo | Tr | End

(* A session's script: start, first question, [cycles] answer/undo
   pairs each followed by a (re)computed question, then one final
   answer, its question, the transcript and the end.  Reads (questions,
   transcript) and durable writes (start, answer, undo, end) alternate. *)
let script =
  Array.concat
    [
      [| Start; Gq |];
      Array.concat (List.init cycles (fun _ -> [| Ans; Gq; Undo; Gq |]));
      [| Ans; Gq; Tr; End |];
    ]

type slot = {
  mutable step : int;  (** index into [script]; -1 = idle this wave *)
  mutable sid : int;
  mutable seed : int;
  mutable goal : int;  (** 0 = flights q1, 1 = q2 *)
  mutable q : P.question option;
  mutable t_start : int;
  mutable t_answer : int;
}

let goal_of i = if i = 0 then Flights.q1 else Flights.q2

(* Everything the chatty check needs: (seed, goal, transcript). *)
type chatty_out = { mutable transcripts : (int * int * string) list }

(* One connection's pipelined sessions.  A single client thread drives
   every connection of a run: it sends a wave on each connection, then
   reads each connection's replies, so no two client threads ever
   compete for the OCaml runtime lock. *)
type chatty_conn = {
  c : Wire.client;
  r : record;
  out : chatty_out;
  slots : slot array;
  rng : Random.State.t;
  mutable active : slot list;  (** the slots of the wave in flight *)
  mutable t0 : int;  (** when the wave was sent *)
}

let chatty_conn ~rng c =
  let slots =
    Array.init pipeline (fun k ->
        { step = (if k land 1 = 1 then -1 else 0); sid = -1; seed = 0; goal = 0;
          q = None; t_start = 0; t_answer = 0 })
  in
  let k = { c; r = new_record (); out = { transcripts = [] }; slots; rng; active = []; t0 = 0 } in
  Array.iter
    (fun s ->
      s.seed <- 1 + Random.State.int rng 32;
      s.goal <- Random.State.int rng 2)
    slots;
  k

let chatty_request s =
  match script.(s.step) with
  | Start ->
    P.Start_session
      { source = P.Builtin "flights"; strategy = strategy_name; seed = s.seed }
  | Gq -> P.Get_question { session = s.sid }
  | Ans -> (
    match s.q with
    | Some q ->
      P.Answer
        { session = s.sid; cls = q.P.cls;
          label = Oracle.label (Oracle.of_goal (goal_of s.goal)) q.P.sg }
    | None -> P.Get_question { session = s.sid })
  | Undo -> P.Undo { session = s.sid }
  | Tr -> P.Get_transcript { session = s.sid }
  | End -> P.End_session { session = s.sid }

(* Send one request for every live session, flushed as one burst. *)
let chatty_send k =
  let r = k.r in
  k.active <- List.filter (fun s -> s.step >= 0) (Array.to_list k.slots);
  k.t0 <- M.now_ns ();
  let last = List.length k.active - 1 in
  List.iteri
    (fun i s ->
      let line = P.request_to_string (chatty_request s) in
      if r.timed then r.sent <- r.sent + String.length line + 4;
      match Wire.send_line ~flush:(i = last) k.c line with
      | Ok () -> ()
      | Error e -> fail "send: %s" e)
    k.active

(* Read and check the replies to the wave in flight. *)
let chatty_recv k ~trace =
  let r = k.r and t0 = k.t0 in
  let timed = r.timed in
  let restart s =
    s.seed <- 1 + Random.State.int k.rng 32;
    s.goal <- Random.State.int k.rng 2;
    s.q <- None;
    s.step <- -1
  in
  List.iter
    (fun s ->
      let line =
        match Wire.recv_line k.c with Ok l -> l | Error e -> fail "recv: %s" e
      in
      let t1 = M.now_ns () in
      let lat = float_of_int (t1 - t0) in
      let kind = script.(s.step) in
      if timed then begin
        r.ops <- r.ops + 1;
        r.recv <- r.recv + String.length line + 4;
        r.resp_bytes <- r.resp_bytes + String.length line
      end;
      let ok =
        match kind with
        | Start -> (
          match P.response_of_string line with
          | Ok (P.Started { session; _ }) ->
            s.sid <- session;
            s.t_start <- t0;
            true
          | _ -> false)
        | Gq -> (
          match P.response_of_string line with
          | Ok (P.Question q) ->
            if timed then begin
              Fbuf.add r.reads lat;
              if s.step = 1 then Fbuf.add r.starts (float_of_int (t1 - s.t_start))
              else if script.(s.step - 1) = Ans then
                Fbuf.add r.turns (float_of_int (t1 - s.t_answer))
            end;
            s.q <- q;
            true
          | _ -> false)
        | Ans ->
          s.t_answer <- t0;
          if timed then begin
            Fbuf.add r.writes lat;
            r.answers <- r.answers + 1
          end;
          has_prefix ~prefix:answered_tag line
        | Undo ->
          if timed then Fbuf.add r.writes lat;
          has_prefix ~prefix:undone_tag line
        | Tr -> (
          match P.response_of_string line with
          | Ok (P.Transcript_text { text }) ->
            if timed then
              k.out.transcripts <- (s.seed, s.goal, text) :: k.out.transcripts;
            true
          | _ -> false)
        | End ->
          if timed then r.sessions <- r.sessions + 1;
          has_prefix ~prefix:ended_tag line
      in
      if timed && trace then r.spans <- (key s.sid s.step, t0, t1) :: r.spans;
      if ok then begin
        (match kind with
        | Start | Ans | Undo | End -> ack r
        | Gq | Tr -> ());
        if kind = End then restart s else s.step <- s.step + 1
      end
      else begin
        if timed then begin
          match kind with
          | Gq -> Fbuf.add r.reads infinity
          | Ans | Undo -> Fbuf.add r.writes infinity
          | Start | Tr | End -> ()
        end;
        note_failure r (Printf.sprintf "step %d: unexpected %s" s.step line);
        restart s
      end)
    k.active;
  Array.iter (fun s -> if s.step < 0 then s.step <- 0) k.slots

(* The transcript a session must have, from the same script replayed
   through an in-process service. *)
let chatty_expected =
  let memo = Hashtbl.create 64 in
  fun seed goal ->
    match Hashtbl.find_opt memo (seed, goal) with
    | Some t -> t
    | None ->
      let svc = Service.create () in
      let sid =
        match
          Service.handle svc
            (P.Start_session
               { source = P.Builtin "flights"; strategy = strategy_name; seed })
        with
        | P.Started { session; _ } -> session
        | other -> fail "local start: %s" (P.response_to_string other)
      in
      let q = ref None in
      let text = ref "" in
      Array.iteri
        (fun i st ->
          if i > 0 then
            match st with
            | Start -> ()
            | Gq -> (
              match Service.handle svc (P.Get_question { session = sid }) with
              | P.Question qq -> q := qq
              | other -> fail "local question: %s" (P.response_to_string other))
            | Ans -> (
              match !q with
              | Some qq ->
                ignore
                  (Service.handle svc
                     (P.Answer
                        { session = sid; cls = qq.P.cls;
                          label = Oracle.label (Oracle.of_goal (goal_of goal)) qq.P.sg }))
              | None -> ())
            | Undo -> ignore (Service.handle svc (P.Undo { session = sid }))
            | Tr -> (
              match Service.handle svc (P.Get_transcript { session = sid }) with
              | P.Transcript_text { text = t } -> text := t
              | other -> fail "local transcript: %s" (P.response_to_string other))
            | End -> ())
        script;
      Hashtbl.replace memo (seed, goal) !text;
      !text

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)

type run = {
  setup_s : float;
  wall_s : float;
  recs : record list;
  probe : probe option;
  mismatches : int;
  rss : float;
  bytes_per_ack : float;
  cpu_ticks : int;
  ctx : int;
  mono_from : int;  (** timed phase, [Measure.now_ns] *)
  mono_to : int;
  catalog : P.catalog_stats;  (** at the end of the timed phase *)
  topo_stats : (string * (string * float) list) list;
      (** traced nodes, by name: layer counters of the timed phase *)
  spans : (node * string) list;  (** traced nodes: span dump files *)
  setup_detail : explore_setup option;
}

(* On a traced node each [#stats] answers the counters since the last
   one, so the call at the start of the timed phase opens the window. *)
let timed_stats ~traced topo =
  if traced then List.map (fun n -> (n.name, control n "#stats")) topo.nodes
  else []

let catalog_info topo =
  let c = connect topo.front in
  let r = call c P.Catalog_stats in
  Wire.close c;
  match r with
  | P.Catalog_info s -> s
  | other -> fail "catalog_stats: %s" (P.response_to_string other)

let finish_traced ~traced topo =
  if traced then List.map (fun n -> ignore (control n "#dump"); (n, n.dump)) topo.nodes
  else []

let explore_run o ~traced ~repeat dir =
  let input = explore_input o in
  let setups =
    List.init repeat (fun i ->
        let d = Filename.concat dir (Printf.sprintf "setup%d" i) in
        Unix.mkdir d 0o755;
        let s = explore_setup o ~traced d input in
        if i < repeat - 1 then stop_topology s.topo;
        s)
  in
  let s = List.nth setups (repeat - 1) in
  let topo = s.topo in
  ignore (timed_stats ~traced topo);
  let cpu0, ctx0 = proc_counters topo in
  let io0 = proc_io topo in
  let r = new_record () in
  r.timed <- true;
  let lc = lconn_open topo.front in
  let pr = prober_open topo.front ~session:s.parked in
  let n = Array.length input.goals in
  let t0 = Unix.gettimeofday () in
  let mono_from = M.now_ns () in
  let outcomes =
    Array.init n (fun i ->
        explore_session r pr lc ~trace:traced
          ~fp:s.fps.(input.inst.(i))
          ~goal:input.goals.(i) ~seed:input.seeds.(i))
  in
  let wall = Unix.gettimeofday () -. t0 in
  let mono_to = M.now_ns () in
  let probe = prober_finish pr in
  Unix.close lc.fd;
  let cpu1, ctx1 = proc_counters topo in
  let bytes =
    disk_bytes ~io0 ~io1:(proc_io topo) ~client_sent:(r.sent + probe.bytes_out)
      ~client_recv:(r.recv + probe.bytes_in)
  in
  let catalog = catalog_info topo in
  let after_stats = timed_stats ~traced topo in
  let spans = finish_traced ~traced topo in
  let rss = rss_mb topo in
  stop_topology topo;
  let mismatches = explore_verify input outcomes in
  {
    setup_s = M.median (Array.of_list (List.map (fun (s : explore_setup) -> s.setup_s) setups));
    wall_s = wall;
    recs = [ r ];
    probe = Some probe;
    mismatches;
    rss;
    bytes_per_ack = float_of_int bytes /. float_of_int (max 1 r.acks);
    cpu_ticks = cpu1 - cpu0;
    ctx = ctx1 - ctx0;
    mono_from;
    mono_to;
    catalog;
    topo_stats = after_stats;
    spans;
    setup_detail = Some s;
  }

let chatty_run o ~traced ~routed ~repeat dir =
  let rate = if routed then routed_ops_per_s else chatty_ops_per_s in
  let waves_for seconds = int_of_float (rate *. seconds /. float_of_int (conns * pipeline)) in
  let waves = waves_for (float_of_int o.seconds) and warm_waves = waves_for warm_s in
  let one i ~measure =
    let d = Filename.concat dir (Printf.sprintf "setup%d" i) in
    Unix.mkdir d 0o755;
    let t0 = Unix.gettimeofday () in
    let topo = start_topology o ~traced ~routed d in
    let clients =
      List.init conns (fun k ->
          chatty_conn ~rng:(Random.State.make [| o.seed; 2; k |]) (connect topo.front))
    in
    let wave ~trace =
      List.iter chatty_send clients;
      List.iter (chatty_recv ~trace) clients
    in
    for _ = 1 to warm_waves do
      wave ~trace:false
    done;
    (* The timed phase starts here; set-up ends at the first timed
       request. *)
    let setup_s = Unix.gettimeofday () -. t0 in
    ignore (timed_stats ~traced topo);
    let cpu0, ctx0 = proc_counters topo in
    let io0 = proc_io topo in
    let t_timed = Unix.gettimeofday () in
    let mono_from = M.now_ns () in
    if measure then begin
      List.iter (fun k -> k.r.timed <- true) clients;
      for _ = 1 to waves do
        wave ~trace:traced
      done
    end;
    let wall = Unix.gettimeofday () -. t_timed in
    let mono_to = M.now_ns () in
    let cpu1, ctx1 = proc_counters topo in
    let recs = List.map (fun k -> k.r) clients in
    let sum f = List.fold_left (fun a (r : record) -> a + f r) 0 recs in
    let bytes =
      disk_bytes ~io0 ~io1:(proc_io topo)
        ~client_sent:(sum (fun r -> r.sent)) ~client_recv:(sum (fun r -> r.recv))
    in
    let acks = sum (fun r -> r.acks) in
    List.iter (fun k -> Wire.close k.c) clients;
    let catalog = catalog_info topo in
    let after_stats = if measure then timed_stats ~traced topo else [] in
    let spans = if measure then finish_traced ~traced topo else [] in
    let rss = rss_mb topo in
    stop_topology topo;
    let mismatches =
      List.fold_left
        (fun acc k ->
          List.fold_left
            (fun acc (seed, goal, text) ->
              if chatty_expected seed goal = text then acc else acc + 1)
            acc k.out.transcripts)
        0 clients
    in
    {
      setup_s;
      wall_s = wall;
      recs;
      probe = None;
      mismatches;
      rss;
      bytes_per_ack = float_of_int bytes /. float_of_int (max 1 acks);
      cpu_ticks = cpu1 - cpu0;
      ctx = ctx1 - ctx0;
      mono_from;
      mono_to;
      catalog;
      topo_stats = after_stats;
      spans;
      setup_detail = None;
    }
  in
  let setups = List.init (repeat - 1) (fun i -> (one i ~measure:false).setup_s) in
  let last = one (repeat - 1) ~measure:true in
  { last with setup_s = M.median (Array.of_list (setups @ [ last.setup_s ])) }

let run_workload o ~traced ~repeat dir =
  match o.workload with
  | "explore" -> explore_run o ~traced ~repeat dir
  | "chatty" -> chatty_run o ~traced ~routed:false ~repeat dir
  | "routed" -> chatty_run o ~traced ~routed:true ~repeat dir
  | w -> fail "unknown workload %S (explore, chatty, routed)" w

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)

let attempted run =
  List.fold_left (fun a (r : record) -> a + r.ops) 0 run.recs
  + match run.probe with Some p -> p.sent | None -> 0

let failed run =
  List.fold_left (fun a (r : record) -> a + r.failed) 0 run.recs
  + run.mismatches
  + match run.probe with Some p -> p.bad | None -> 0

let pct what xs p =
  match M.percentile xs p with
  | Some v -> v
  | None ->
    fail "%s: %d samples are too few for p%g" what (Array.length xs) (p *. 100.)

let latencies run =
  let all f = Fbuf.concat (List.map f run.recs) in
  let reads =
    match run.probe with Some p -> Fbuf.concat [ p.lat ] | None -> all (fun r -> r.reads)
  in
  (all (fun r -> r.starts), all (fun r -> r.turns), reads, all (fun r -> r.writes))

let sum run f = List.fold_left (fun a r -> a + f r) 0 run.recs

(* The gated end-to-end metrics: set-up time and the counts a seed
   repeats.  Every timing of the timed phase moves with the host's speed,
   which drifts by 10-30% from minute to minute (README.md), so
   [ungated] reports the timings with the per-layer metrics instead. *)
let end_to_end run =
  let sum = sum run in
  let sessions = sum (fun r -> r.sessions) in
  [
    ("setup_s", run.setup_s, "s");
    ( "questions_per_session",
      float_of_int (sum (fun r -> r.answers)) /. float_of_int (max 1 sessions),
      "count" );
    ("server_rss_mb", run.rss, "MB");
    ("disk_bytes_per_ack", run.bytes_per_ack, "B");
  ]

let ops_per_s run = float_of_int (sum run (fun r -> r.ops)) /. run.wall_s

let ungated run =
  let starts, turns, reads, writes = latencies run in
  [
    ("e2e.sessions_per_s", float_of_int (sum run (fun r -> r.sessions)) /. run.wall_s, "1/s");
    ("e2e.ops_per_s", ops_per_s run, "1/s");
    ("e2e.start_p50_ms", pct "start" starts 0.5 /. 1e6, "ms");
    ("e2e.start_p90_ms", pct "start" starts 0.9 /. 1e6, "ms");
    ("e2e.turn_p50_ms", pct "turn" turns 0.5 /. 1e6, "ms");
    ("e2e.turn_p99_ms", pct "turn" turns 0.99 /. 1e6, "ms");
    ("e2e.read_p50_us", pct "read" reads 0.5 /. 1e3, "us");
    ("e2e.read_p99_us", pct "read" reads 0.99 /. 1e3, "us");
    ("e2e.write_p50_us", pct "write" writes 0.5 /. 1e3, "us");
    ("e2e.write_p99_us", pct "write" writes 0.99 /. 1e3, "us");
  ]

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj m);
          ]))

(* Per-layer percentiles report 0 where the layer is not on the path. *)
let pq xs p = match M.percentile xs p with Some v -> v | None -> 0.
let ratio a b = if b = 0. then 0. else a /. b

let describe o run =
  Printf.printf "workload %s, seed %d: %d operations in %.3f s, %d failed\n"
    o.workload o.seed (attempted run) run.wall_s (failed run);
  (match run.probe with
  | Some p ->
    Printf.printf
      "probe: %d reads at %d/s, generator late by %.1f us on average (max %.1f us)\n"
      p.sent (1_000_000_000 / probe_period_ns)
      (float_of_int p.late_ns /. float_of_int (max 1 p.sent) /. 1e3)
      (float_of_int p.late_max_ns /. 1e3);
    let lat = Fbuf.concat [ p.lat ] in
    Printf.printf "probe latency: p10 %.0f us, p25 %.0f us, p50 %.0f us, p75 %.0f us, p90 %.0f us\n"
      (pq lat 0.1 /. 1e3) (pq lat 0.25 /. 1e3) (pq lat 0.5 /. 1e3) (pq lat 0.75 /. 1e3) (pq lat 0.9 /. 1e3)
  | None -> ());
  List.iter
    (fun (r : record) -> List.iter (Printf.printf "error: %s\n") r.errors)
    run.recs;
  if run.mismatches > 0 then
    Printf.printf "error: %d sessions differ from the in-process reference\n"
      run.mismatches

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                        *)

(* In-process replay of the workload's sessions through [Session], on
   engines off a local catalog as the server builds them: the engine
   layer's own pick and answer times, and its counters. *)
let engine_replay o =
  let cat = Catalog.create () in
  let entry source =
    match Catalog.resolve cat source with
    | Ok e -> e
    | Error e -> fail "local catalog: %s" (P.error_to_string e)
  in
  let picks = ref [] and answers = ref [] in
  let timed f =
    let a = M.now_ns () in
    let r = f () in
    (r, float_of_int (M.now_ns () - a))
  in
  let ask eng rng =
    let q, t = timed (fun () -> Session.question eng strategy rng) in
    if q <> None then picks := t :: !picks;
    q
  in
  let answer eng c label =
    let _, t = timed (fun () -> Session.answer eng c label) in
    answers := t :: !answers
  in
  let before = ref (Metrics.snapshot ()) in
  (match o.workload with
  | "explore" ->
    let input = explore_input o in
    let entries = Array.map (fun csv -> entry (P.Csv_inline csv)) input.instances in
    (* The server's set-up asked each instance's first question. *)
    Array.iter
      (fun e -> ignore (Session.question (Catalog.engine e) strategy (Random.State.make [| 0 |])))
      entries;
    before := Metrics.snapshot ();
    Array.iteri
      (fun i goal ->
        let eng = Catalog.engine entries.(input.inst.(i)) in
        let rng = Random.State.make [| input.seeds.(i) |] in
        let oracle = Oracle.of_goal goal in
        let rec loop () =
          match ask eng rng with
          | None -> ()
          | Some c ->
            answer eng c (Oracle.label oracle (Session.classes eng).(c).Jim_core.Sigclass.sg);
            loop ()
        in
        loop ())
      input.goals
  | _ ->
    let e = entry (P.Builtin "flights") in
    let rng = Random.State.make [| o.seed; 2; 0 |] in
    for _ = 1 to 128 do
      let seed = 1 + Random.State.int rng 32 in
      let oracle = Oracle.of_goal (goal_of (Random.State.int rng 2)) in
      let eng = Catalog.engine e in
      let srng = Random.State.make [| seed |] in
      let q = ref None in
      Array.iter
        (function
          | Gq -> q := ask eng srng
          | Ans -> (
            match !q with
            | Some c -> answer eng c (Oracle.label oracle (Session.classes eng).(c).Jim_core.Sigclass.sg)
            | None -> ())
          | Undo -> ignore (Session.undo eng)
          | Start | Tr | End -> ())
        script
    done);
  ( Array.of_list !picks,
    Array.of_list !answers,
    Metrics.diff (Metrics.snapshot ()) !before )

let load_spans file =
  if Sys.file_exists file then
    String.split_on_char '\n' (read_file file) |> List.filter_map M.span_of_line
  else []

let trace_report o (plain : run) (traced : run) =
  let routed = o.workload = "routed" in
  let spans_of name =
    match List.find_opt (fun ((n : node), _) -> n.name = name) traced.spans with
    | None -> []
    | Some (_, file) ->
      List.filter
        (fun (s : M.span) -> s.start_ns >= traced.mono_from && s.end_ns <= traced.mono_to)
        (load_spans file)
  in
  let front = spans_of (if routed then "router" else "serve") in
  let shard = if routed then spans_of "shard" else front in
  let durations pred spans =
    Array.of_list
      (List.filter_map
         (fun (s : M.span) -> if pred s.name then Some (float_of_int (s.end_ns - s.start_ns)) else None)
         spans)
  in
  let named n = durations (( = ) n) in
  let prefixed p = durations (String.starts_with ~prefix:p) in
  let selfs name spans =
    Array.of_list
      (List.filter_map
         (fun ((s : M.span), t) -> if s.name = name then Some (float_of_int t) else None)
         (M.self_times spans))
  in
  (* Wire self time: the client's span of a request minus the serving
     node's root span of the same request, both on CLOCK_MONOTONIC. *)
  let roots = Hashtbl.create 4096 in
  List.iter
    (fun (s : M.span) -> if s.parent < 0 && s.key <> "" then Hashtbl.replace roots s.key (s.end_ns - s.start_ns))
    front;
  let wire =
    List.concat_map (fun (r : record) -> r.spans) traced.recs
    |> List.filter_map (fun (k, a, b) ->
           Option.map (fun d -> float_of_int (b - a - d)) (Hashtbl.find_opt roots k))
    |> Array.of_list
  in
  let stat node k =
    match List.assoc_opt node traced.topo_stats with
    | Some kv -> Option.value (List.assoc_opt k kv) ~default:0.
    | None -> 0.
  in
  let fname = if routed then "router" else "serve" in
  let sname = if routed then "shard" else "serve" in
  let total k = List.fold_left (fun a (n, _) -> a +. stat n k) 0. traced.topo_stats in
  let picks, answers, em = engine_replay o in
  let us x = x /. 1e3 in
  let sum_ops (r : run) = float_of_int (attempted r) in
  let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let setup f = match plain.setup_detail with Some s -> mean (f s) | None -> 0. in
  let cat = traced.catalog in
  [
    ("engine.pick_us.p50", us (pq picks 0.5), "us");
    ("engine.pick_us.p99", us (pq picks 0.99), "us");
    ("engine.answer_us.p50", us (pq answers 0.5), "us");
    ("engine.meets_per_pick", ratio (float_of_int em.Metrics.meets) (float_of_int em.Metrics.picks), "count");
    ( "engine.classify_per_pick",
      ratio (float_of_int em.Metrics.classify_calls) (float_of_int em.Metrics.picks),
      "count" );
    ("engine.memo_hit_ratio", Metrics.hit_rate em, "ratio");
    ("engine.first_pick_ms", setup (fun s -> s.first_pick_ms), "ms");
    ("catalog.register_ms", setup (fun s -> s.register_ms), "ms");
    ( "catalog.hit_ratio",
      ratio (float_of_int cat.P.hits) (float_of_int (cat.P.hits + cat.P.misses)),
      "ratio" );
    ("catalog.derivations", float_of_int cat.P.derivations, "count");
    ("protocol.decode_us.p50", us (pq (prefixed "decode." shard) 0.5), "us");
    ("protocol.encode_us.p50", us (pq (prefixed "encode." shard) 0.5), "us");
    ("protocol.decode_us.read.p50", us (pq (named "decode.read" shard) 0.5), "us");
    ("protocol.decode_us.write.p50", us (pq (named "decode.write" shard) 0.5), "us");
    ("protocol.encode_us.read.p50", us (pq (named "encode.read" shard) 0.5), "us");
    ("protocol.encode_us.write.p50", us (pq (named "encode.write" shard) 0.5), "us");
    ( "protocol.resp_bytes",
      ratio
        (float_of_int (List.fold_left (fun a (r : record) -> a + r.resp_bytes) 0 traced.recs))
        (float_of_int (List.fold_left (fun a (r : record) -> a + r.ops) 0 traced.recs)),
      "B" );
    ("service.handle_us.p50", us (pq (selfs "service" shard) 0.5), "us");
    ("service.handle_us.p99", us (pq (selfs "service" shard) 0.99), "us");
    ("wire.self_us.p50", us (pq wire 0.5), "us");
    ("wire.self_us.p99", us (pq wire 0.99), "us");
    ("wire.flushes_per_req", ratio (stat fname "flushes") (stat fname "requests"), "count");
    ("wire.coalesced_per_flush", ratio (stat fname "coalesced") (stat fname "flushes"), "count");
    ("wire.depth_max", stat fname "depth_max", "count");
    ("wire.bytes_per_req", ratio (stat fname "bytes") (stat fname "requests"), "B");
    ("store.record_us.p50", us (pq (named "store.record" shard) 0.5), "us");
    ("store.record_us.p99", us (pq (named "store.record" shard) 0.99), "us");
    ( "store.records_per_fsync",
      ratio (stat sname "journal_writes") (stat sname "journal_fsyncs"),
      "count" );
    ("store.max_batch", stat sname "max_batch", "count");
    ("store.bytes_per_record", ratio (stat sname "journal_bytes") (stat sname "journal_writes"), "B");
    ("router.self_us.p50", us (pq (selfs "router" front) 0.5), "us");
    ("router.self_us.p99", us (pq (selfs "router" front) 0.99), "us");
    ("router.upstream_us.p50", us (pq (named "upstream" front) 0.5), "us");
    ("repl.send_us.p50", us (pq (named "repl.send" shard) 0.5), "us");
    ("repl.send_us.p99", us (pq (named "repl.send" shard) 0.99), "us");
    ("repl.records_per_batch", ratio (stat sname "repl_records") (stat sname "repl_batches"), "count");
    ("repl.lag_records", ratio (stat sname "lag_sum") (stat sname "lag_samples"), "count");
    (* /proc ticks are 1/100 s. *)
    ("server.cpu_us_per_op", ratio (float_of_int plain.cpu_ticks *. 1e4) (sum_ops plain), "us");
    ("server.ctx_switches_per_op", ratio (float_of_int plain.ctx) (sum_ops plain), "count");
    ("gc.minor_words_per_op", ratio (total "minor_words") (sum_ops traced), "words");
    ("gc.major_collections", total "major_collections", "count");
    ("trace.ops_ratio", ratio (ops_per_s traced) (ops_per_s plain), "ratio");
  ]
  @ ungated plain

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)

let usage () =
  prerr_endline
    "usage: jimbench --jim PATH --tracer PATH --workload explore|chatty|routed \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  {
    workload = get "workload";
    seed = int "seed";
    seconds = max 1 (int "seconds");
    trace = int "trace" <> 0;
    jim = get "jim";
    tracer = get "tracer";
  }


let main () =
  let o = parse_args () in
  let base = ".bench_run" in
  if not (Sys.file_exists base) then Unix.mkdir base 0o755;
  let dir = Filename.concat base (Printf.sprintf "%s-%d" o.workload (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let shm = Printf.sprintf "/dev/shm/jimbench-%d" (Unix.getpid ()) in
  (data_root :=
     try
       Unix.mkdir shm 0o700;
       shm
     with Unix.Unix_error _ -> dir);
  at_exit (fun () ->
      stop_all ();
      rm_rf dir;
      rm_rf shm;
      try Unix.rmdir base with Unix.Unix_error _ -> ());
  let handler = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  try
    if not o.trace then begin
      let run = run_workload o ~traced:false ~repeat:setups dir in
      describe o run;
      List.iter (fun (k, v, u) -> Printf.printf "%s: %.4g %s\n" k v u) (ungated run);
      let metrics = end_to_end run in
      print_result ~correct:(failed run = 0) ~attempted:(attempted run)
        ~failed:(failed run) metrics
    end
    else begin
      let d1 = Filename.concat dir "plain" and d2 = Filename.concat dir "traced" in
      Unix.mkdir d1 0o755;
      Unix.mkdir d2 0o755;
      let plain = run_workload o ~traced:false ~repeat:1 d1 in
      let traced = run_workload o ~traced:true ~repeat:1 d2 in
      describe o traced;
      let metrics = trace_report o plain traced in
      let runs = [ plain; traced ] in
      let a = List.fold_left (fun a r -> a + attempted r) 0 runs in
      let f = List.fold_left (fun a r -> a + failed r) 0 runs in
      print_result ~correct:(f = 0) ~attempted:a ~failed:f metrics
    end;
    0
  with Bench_error e | Failure e ->
    Printf.eprintf "jimbench: %s\n%!" e;
    1

let () = exit (main ())
