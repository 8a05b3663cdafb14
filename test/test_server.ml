(* Server tests: the concurrent session manager and the socket loop.

   The headline test is the acceptance bar of the api_redesign issue:
   32 threaded clients drive oracle-guided sessions over a Unix-domain
   socket concurrently, and every outcome must be bit-identical to the
   in-process [Session.run] with the same instance, seed and strategy.
   Alongside it: max-sessions backpressure (a saturated server answers
   Server_busy, it does not hang), idle-TTL eviction with an injected
   clock, Get_question idempotency, undo over the wire, and protocol
   error replies straight off [Node.handle_line]. *)

module Pr = Jim_api.Protocol
module Service = Jim_server.Service
module Wire = Jim_server.Wire
module Smoke = Jim_server.Smoke
module Netstats = Jim_server.Netstats
open Jim_core

let fresh_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jim-test-%d-%d.sock" (Unix.getpid ()) !counter)

let with_server ?(max_sessions = 64) f =
  let node =
    Serving.start
      ~settings:{ Jim_shard.Node.default_settings with max_sessions }
      Serving.memory
      (Wire.Unix_path (fresh_socket ()))
  in
  Fun.protect
    ~finally:(fun () -> Jim_shard.Node.stop node)
    (fun () -> f (Serving.address node) (Serving.service node))

(* ------------------------------------------------------------------ *)
(* Address syntax                                                      *)

let test_address_parsing () =
  let ok s expected =
    match Wire.address_of_string s with
    | Ok a ->
      Alcotest.(check string) (s ^ " parses") expected (Wire.address_to_string a)
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  let reject s =
    match Wire.address_of_string s with
    | Error _ -> ()
    | Ok a ->
      Alcotest.failf "%s accepted as %s" s (Wire.address_to_string a)
  in
  ok "127.0.0.1:9090" "127.0.0.1:9090";
  ok "localhost:80" "localhost:80";
  ok ":9090" "127.0.0.1:9090";
  ok "[::1]:9090" "[::1]:9090";
  ok "[fe80::1%eth0]:443" "[fe80::1%eth0]:443";
  ok "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  (* a bare IPv6 literal split at the last colon would silently read
     ::1:9090 as host "::1" — it must be refused, not guessed at *)
  reject "::1:9090";
  reject "2001:db8::1:80";
  reject "[::1]9090";
  reject "[::1]:";
  reject "[]:9090";
  reject "[::1:9090";
  reject "host:";
  reject "host:notaport";
  reject "host:70000";
  reject "nocolon";
  (* round-trip: to_string ∘ of_string = id on the printed form *)
  List.iter
    (fun a ->
      match Wire.address_of_string (Wire.address_to_string a) with
      | Ok a' ->
        Alcotest.(check string) "round-trip" (Wire.address_to_string a)
          (Wire.address_to_string a')
      | Error e -> Alcotest.failf "round-trip rejected: %s" e)
    [ Wire.Tcp ("::1", 9090); Wire.Tcp ("127.0.0.1", 0); Wire.Unix_path "/s" ]

(* ------------------------------------------------------------------ *)
(* Concurrency: the acceptance bar                                     *)

let check_reports reports n =
  Alcotest.(check int) "all clients reported" n (List.length reports);
  List.iter
    (fun r ->
      if not r.Smoke.ok then
        Alcotest.failf "seed %d (%s): %s" r.Smoke.seed r.Smoke.strategy
          r.Smoke.detail;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d asked questions" r.Smoke.seed)
        true (r.Smoke.questions > 0))
    reports

let test_smoke_32_clients () =
  with_server (fun address _ ->
      check_reports (Smoke.run ~clients:32 ~address ()) 32)

let test_smoke_32_clients_binary () =
  with_server (fun address _ ->
      check_reports (Smoke.run ~clients:32 ~framing:Wire.Binary ~address ()) 32)

(* Pipelined clients: 4 connections, 8 interleaved sessions each, so
   every connection keeps up to 8 requests in flight.  Outcomes stay
   bit-identical (requests run and reply in request order), and the
   wire counters must show the pipeline working: several requests of
   one connection in a turn, and responses sharing flushes. *)
let test_smoke_pipelined () =
  with_server (fun address _ ->
      let before = Netstats.snapshot () in
      check_reports (Smoke.run_pipelined ~clients:4 ~pipeline:8 ~address ()) 32;
      let after = Netstats.snapshot () in
      Alcotest.(check bool) "flushes counted" true
        (after.Netstats.flushes > before.Netstats.flushes);
      Alcotest.(check bool) "responses coalesced into shared flushes" true
        (after.Netstats.writes_coalesced > before.Netstats.writes_coalesced);
      Alcotest.(check bool) "pipelined depth above 1" true
        (after.Netstats.pipelined_depth_max >= 2))

(* The catalog acceptance bar: the same 32 concurrent clients, but all
   on ONE instance — a single shared catalog entry, one derivation, one
   scorer memo — must stay bit-identical to isolated in-process runs. *)
let test_smoke_32_clients_shared_entry () =
  with_server (fun address service ->
      check_reports (Smoke.run ~clients:32 ~instance:7 ~address ()) 32;
      let s = Jim_catalog.Catalog.stats (Service.catalog service) in
      Alcotest.(check int) "one shared entry" 1 s.Pr.entries;
      Alcotest.(check int) "derived once for 32 clients" 1 s.Pr.derivations;
      Alcotest.(check int) "fingerprinted once" 1 s.Pr.fingerprints;
      Alcotest.(check bool) "the other 31 starts were warm" true
        (s.Pr.hits >= 31);
      Alcotest.(check int) "ended sessions left nothing pinned" 0 s.Pr.pinned)

(* The register → start-by-fingerprint flow over the wire: no instance
   data on the session starts, counters prove the sharing. *)
let test_catalog_smoke_drill () =
  with_server (fun address _ ->
      match Smoke.catalog_smoke ~clients:4 ~address () with
      | Error e -> Alcotest.failf "catalog smoke: %s" e
      | Ok (reports, stats) ->
        check_reports reports 4;
        Alcotest.(check int) "one derivation" 1 stats.Pr.derivations;
        Alcotest.(check int) "one fingerprint" 1 stats.Pr.fingerprints;
        Alcotest.(check bool) "fingerprint starts hit the catalog" true
          (stats.Pr.hits >= 4))

(* The same request stream must produce byte-identical reply payloads
   under both framings — binary changes the delimiting, never the
   bytes.  One fresh server per framing, so session ids line up. *)
let test_framings_bit_identical () =
  let requests =
    [
      Pr.request_to_string
        (Pr.Start_session
           { source = Pr.Builtin "flights"; strategy = "random"; seed = 1 });
      Pr.request_to_string (Pr.Get_question { session = 1 });
      Pr.request_to_string (Pr.Undo { session = 1 });
      "garbage that is not json";
      Pr.request_to_string (Pr.Get_question { session = 999 });
      Pr.request_to_string (Pr.End_session { session = 1 });
      Pr.request_to_string (Pr.Get_question { session = 1 });
    ]
  in
  let replies framing =
    with_server (fun address _ ->
        match Wire.connect ~retries:50 ~framing address with
        | Error e -> Alcotest.failf "connect: %s" e
        | Ok c ->
          let rs =
            List.map
              (fun req ->
                match Wire.call_line c req with
                | Ok r -> r
                | Error e -> Alcotest.failf "call: %s" e)
              requests
          in
          Wire.close c;
          rs)
  in
  let line_replies = replies Wire.Line in
  let binary_replies = replies Wire.Binary in
  List.iteri
    (fun i (l, b) ->
      Alcotest.(check string)
        (Printf.sprintf "reply %d identical across framings" i)
        l b)
    (List.combine line_replies binary_replies)

(* A thousand parked connections must not starve active ones: park
   1000 idle clients, then run the full 32-client smoke through the
   same event loop. *)
let test_thousand_idle_connections () =
  with_server (fun address _ ->
      let before = Netstats.snapshot () in
      let idle =
        List.init 1000 (fun _ ->
            match Wire.connect ~retries:50 address with
            | Ok c -> c
            | Error e -> Alcotest.failf "idle connect: %s" e)
      in
      check_reports (Smoke.run ~clients:32 ~address ()) 32;
      (* the idle conns are still alive: ping one *)
      (match Wire.call_line (List.nth idle 500) "{}" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "idle conn died: %s" e);
      List.iter Wire.close idle;
      let after = Netstats.snapshot () in
      Alcotest.(check bool) "accepted >= 1032 more" true
        (after.Netstats.accepted - before.Netstats.accepted >= 1032))

(* ------------------------------------------------------------------ *)
(* Wire counters                                                       *)

let test_netstats_counters () =
  with_server (fun address _ ->
      let before = Netstats.snapshot () in
      (match Wire.connect ~retries:50 ~framing:Wire.Binary address with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok c ->
        (match Wire.call_line c "not json" with
        | Ok reply ->
          Alcotest.(check bool) "malformed payload still answered" true
            (String.length reply > 0)
        | Error e -> Alcotest.failf "call: %s" e);
        Wire.close c);
      (* close is asynchronous on the server side; poll briefly *)
      let rec settle tries =
        let s = Netstats.snapshot () in
        if s.Netstats.closed > before.Netstats.closed || tries = 0 then s
        else begin
          Thread.delay 0.05;
          settle (tries - 1)
        end
      in
      let after = settle 40 in
      Alcotest.(check bool) "accept counted" true
        (after.Netstats.accepted > before.Netstats.accepted);
      Alcotest.(check bool) "close counted" true
        (after.Netstats.closed > before.Netstats.closed);
      Alcotest.(check bool) "binary negotiation counted" true
        (after.Netstats.binary_conns > before.Netstats.binary_conns);
      Alcotest.(check bool) "malformed counted" true
        (after.Netstats.malformed > before.Netstats.malformed);
      Alcotest.(check bool) "request counted" true
        (after.Netstats.requests > before.Netstats.requests);
      Alcotest.(check bool) "bytes flowed" true
        (after.Netstats.bytes_in > before.Netstats.bytes_in
        && after.Netstats.bytes_out > before.Netstats.bytes_out))

(* On Linux the event loop must actually be on epoll, not the select
   fallback — the fallback exists for other platforms, and silently
   landing on it here would invalidate the 1k-connection claim. *)
let test_epoll_backend () =
  if Sys.file_exists "/proc/version" then begin
    let p = Jim_server.Epoll.create () in
    let backed = Jim_server.Epoll.backed_by_epoll p in
    Jim_server.Epoll.close p;
    Alcotest.(check bool) "epoll backend selected on Linux" true backed
  end

let test_server_busy () =
  with_server ~max_sessions:2 (fun address _ ->
      List.iter
        (fun framing ->
          match Smoke.busy_check ~framing ~address ~fill:2 () with
          | Ok () -> ()
          | Error e -> Alcotest.fail e)
        [ Wire.Line; Wire.Binary ];
      (* busy_check ended its sessions: nothing pins the catalog any
         more, read over the wire from the loop that owns the service *)
      match Wire.connect address with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok c -> (
        let reply = Wire.call c Pr.Catalog_stats in
        Wire.close c;
        match reply with
        | Ok (Pr.Catalog_info s) ->
          Alcotest.(check int) "sessions cleaned up" 0 s.Pr.pinned
        | Ok other -> Alcotest.failf "catalog_stats: %s" (Pr.response_to_string other)
        | Error e -> Alcotest.failf "call: %s" e))

(* ------------------------------------------------------------------ *)
(* Service-level behaviour (no socket: direct handle calls)            *)

let start_flights service ~seed =
  match
    Service.handle service
      (Pr.Start_session
         { source = Pr.Builtin "flights"; strategy = "lookahead-entropy"; seed })
  with
  | Pr.Started { session; _ } -> session
  | other -> Alcotest.failf "start failed: %s" (Pr.response_to_string other)

let test_ttl_eviction () =
  let clock = ref 0. in
  let service = Service.create ~idle_ttl:10. ~now:(fun () -> !clock) () in
  let s1 = start_flights service ~seed:1 in
  clock := 8.;
  let s2 = start_flights service ~seed:2 in
  Alcotest.(check int) "two live" 2 (Service.session_count service);
  (* touching s1 at t=8 resets its idle clock *)
  (match Service.handle service (Pr.Get_question { session = s1 }) with
  | Pr.Question (Some _) -> ()
  | other -> Alcotest.failf "get failed: %s" (Pr.response_to_string other));
  clock := 17.;
  Alcotest.(check int) "nothing stale yet" 0 (Service.sweep service);
  clock := 19.5;
  (* s1 idle 11.5 s > TTL; s2 idle 11.5 s too *)
  Alcotest.(check int) "both evicted" 2 (Service.sweep service);
  match Service.handle service (Pr.Get_question { session = s2 }) with
  | Pr.Failed (Pr.Unknown_session id) -> Alcotest.(check int) "id echoed" s2 id
  | other -> Alcotest.failf "expected Unknown_session: %s" (Pr.response_to_string other)

let test_get_question_idempotent () =
  let service = Service.create () in
  let s = start_flights service ~seed:42 in
  let get () =
    match Service.handle service (Pr.Get_question { session = s }) with
    | Pr.Question (Some q) -> q
    | other -> Alcotest.failf "get failed: %s" (Pr.response_to_string other)
  in
  let q1 = get () in
  let q2 = get () in
  let q3 = get () in
  Alcotest.(check bool) "same class asked" true
    (q1.Pr.cls = q2.Pr.cls && q2.Pr.cls = q3.Pr.cls)

let test_answer_undo_over_service () =
  let service = Service.create () in
  let s = start_flights service ~seed:3 in
  let get () =
    match Service.handle service (Pr.Get_question { session = s }) with
    | Pr.Question (Some q) -> q
    | other -> Alcotest.failf "get failed: %s" (Pr.response_to_string other)
  in
  let q = get () in
  (match
     Service.handle service (Pr.Answer { session = s; cls = q.Pr.cls; label = State.Pos })
   with
  | Pr.Answered { asked = 1; _ } -> ()
  | other -> Alcotest.failf "answer failed: %s" (Pr.response_to_string other));
  (match Service.handle service (Pr.Undo { session = s }) with
  | Pr.Undone { asked = 0 } -> ()
  | other -> Alcotest.failf "undo failed: %s" (Pr.response_to_string other));
  (* a second undo has nothing to retract: typed engine error *)
  (match Service.handle service (Pr.Undo { session = s }) with
  | Pr.Failed (Pr.Engine Session.Nothing_to_undo) -> ()
  | other -> Alcotest.failf "expected Nothing_to_undo: %s" (Pr.response_to_string other));
  (* after the undo the same question comes back (state rolled back) *)
  let q' = get () in
  Alcotest.(check int) "question re-proposed" q.Pr.cls q'.Pr.cls;
  (* outcome events shrink with undo: answer twice, outcome has 2 events *)
  let answer_current () =
    let q = get () in
    match
      Service.handle service
        (Pr.Answer { session = s; cls = q.Pr.cls; label = State.Neg })
    with
    | Pr.Answered _ -> ()
    | other -> Alcotest.failf "answer failed: %s" (Pr.response_to_string other)
  in
  answer_current ();
  answer_current ();
  match Service.handle service (Pr.Result { session = s }) with
  | Pr.Outcome o ->
    Alcotest.(check int) "events track undo" 2 (List.length o.Session.events);
    Alcotest.(check int) "interactions track undo" 2 o.Session.interactions
  | other -> Alcotest.failf "result failed: %s" (Pr.response_to_string other)

let test_session_stats () =
  let service = Service.create () in
  let s = start_flights service ~seed:5 in
  (match Service.handle service (Pr.Get_question { session = s }) with
  | Pr.Question (Some q) -> (
    match
      Service.handle service
        (Pr.Answer { session = s; cls = q.Pr.cls; label = State.Pos })
    with
    | Pr.Answered _ -> ()
    | other -> Alcotest.failf "answer failed: %s" (Pr.response_to_string other))
  | other -> Alcotest.failf "get failed: %s" (Pr.response_to_string other));
  match Service.handle service (Pr.Stats { session = s }) with
  | Pr.Session_stats st ->
    Alcotest.(check int) "one label" 1 st.Pr.labeled;
    Alcotest.(check int) "totals add up" st.Pr.total
      (st.Pr.labeled + st.Pr.auto_determined + st.Pr.still_informative);
    Alcotest.(check bool) "scoring attributed to this session" true
      (st.Pr.scoring.Metrics.picks >= 1)
  | other -> Alcotest.failf "stats failed: %s" (Pr.response_to_string other)

let test_get_transcript () =
  let service = Service.create () in
  let s = start_flights service ~seed:11 in
  let answer_current () =
    match Service.handle service (Pr.Get_question { session = s }) with
    | Pr.Question (Some q) -> (
      match
        Service.handle service
          (Pr.Answer { session = s; cls = q.Pr.cls; label = State.Neg })
      with
      | Pr.Answered _ -> ()
      | other -> Alcotest.failf "answer failed: %s" (Pr.response_to_string other))
    | other -> Alcotest.failf "get failed: %s" (Pr.response_to_string other)
  in
  answer_current ();
  answer_current ();
  let transcript () =
    match Service.handle service (Pr.Get_transcript { session = s }) with
    | Pr.Transcript_text { text } -> (
      match Transcript.of_string text with
      | Ok t -> t
      | Error e -> Alcotest.failf "transcript unparseable: %s" e)
    | other ->
      Alcotest.failf "get_transcript failed: %s" (Pr.response_to_string other)
  in
  let t = transcript () in
  Alcotest.(check int) "flights arity" 5 t.Transcript.arity;
  Alcotest.(check int) "two labels recorded" 2
    (List.length t.Transcript.entries);
  (* the transcript shrinks with undo, like the engine *)
  (match Service.handle service (Pr.Undo { session = s }) with
  | Pr.Undone _ -> ()
  | other -> Alcotest.failf "undo failed: %s" (Pr.response_to_string other));
  let t' = transcript () in
  Alcotest.(check int) "undo drops a label" 1 (List.length t'.Transcript.entries);
  match Service.handle service (Pr.Get_transcript { session = 999 }) with
  | Pr.Failed (Pr.Unknown_session 999) -> ()
  | other ->
    Alcotest.failf "expected Unknown_session: %s" (Pr.response_to_string other)

let test_bad_requests () =
  let node =
    match Jim_shard.Node.create (Jim_shard.Node.config Serving.memory) with
    | Ok node -> node
    | Error e -> Alcotest.fail e
  in
  let line l =
    match Pr.response_of_string (fst (Jim_shard.Node.handle_line node l)) with
    | Ok r -> r
    | Error e -> Alcotest.failf "reply unparseable: %s" (Pr.error_to_string e)
  in
  (match line "garbage" with
  | Pr.Failed (Pr.Bad_request _) -> ()
  | other -> Alcotest.failf "expected Bad_request: %s" (Pr.response_to_string other));
  (match line {|{"jim":7,"req":"undo","session":1}|} with
  | Pr.Failed (Pr.Unsupported_version 7) -> ()
  | other ->
    Alcotest.failf "expected Unsupported_version: %s" (Pr.response_to_string other));
  (match line {|{"jim":1,"req":"undo","session":999}|} with
  | Pr.Failed (Pr.Unknown_session 999) -> ()
  | other -> Alcotest.failf "expected Unknown_session: %s" (Pr.response_to_string other));
  (match
     Jim_shard.Node.handle node
       (Pr.Start_session
          { source = Pr.Builtin "flights"; strategy = "nonesuch"; seed = 0 })
   with
  | Pr.Failed (Pr.Unknown_strategy _) -> ()
  | other ->
    Alcotest.failf "expected Unknown_strategy: %s" (Pr.response_to_string other));
  (match
     Jim_shard.Node.handle node
       (Pr.Start_session
          { source = Pr.Builtin "narnia"; strategy = "random"; seed = 0 })
   with
  | Pr.Failed (Pr.Bad_source _) -> ()
  | other -> Alcotest.failf "expected Bad_source: %s" (Pr.response_to_string other));
  (match
     Jim_shard.Node.handle node
       (Pr.Start_session
          {
            source =
              Pr.Synthetic
                { n_attrs = 3; n_tuples = 2; domain = 1; goal_rank = 1; seed = 0 };
            strategy = "random";
            seed = 0;
          })
   with
  | Pr.Failed (Pr.Bad_source _) -> ()
  | other ->
    Alcotest.failf "expected Bad_source (domain too small): %s"
      (Pr.response_to_string other));
  let s = start_flights (Option.get (Jim_shard.Node.service node)) ~seed:9 in
  match
    Jim_shard.Node.handle node (Pr.Answer { session = s; cls = 99; label = State.Pos })
  with
  | Pr.Failed (Pr.Bad_request _) -> ()
  | other ->
    Alcotest.failf "expected Bad_request (class range): %s"
      (Pr.response_to_string other)

let test_csv_inline_source () =
  let service = Service.create () in
  let csv = "a,b,c\n1,1,2\n1,2,2\n3,3,3\n" in
  match
    Service.handle service
      (Pr.Start_session
         { source = Pr.Csv_inline csv; strategy = "random"; seed = 0 })
  with
  | Pr.Started { arity = 3; tuples = 3; _ } -> ()
  | other -> Alcotest.failf "csv start failed: %s" (Pr.response_to_string other)

(* ------------------------------------------------------------------ *)
(* The per-turn durability barrier, seen from the socket               *)

(* A durable primary on an in-memory filesystem whose every fsync first
   runs [gate] — which may block (a held fsync) or raise (a failing
   disk). *)
let with_gated_node gate f =
  let base = Jim_fault.Memfs.io (Jim_fault.Memfs.create ()) in
  let wrap (file : Jim_store.Io.file) =
    {
      file with
      Jim_store.Io.fsync =
        (fun () ->
          gate ();
          file.Jim_store.Io.fsync ());
    }
  in
  let io =
    {
      base with
      Jim_store.Io.create = (fun path -> wrap (base.Jim_store.Io.create path));
      open_append =
        (fun path ->
          Result.map
            (fun (file, size) -> (wrap file, size))
            (base.Jim_store.Io.open_append path));
    }
  in
  let node =
    match
      Jim_shard.Node.start
        {
          (Jim_shard.Node.config
             (Jim_shard.Node.Primary { data_dir = Some "/data"; replicate_to = None }))
          with
          listen = Wire.Unix_path (fresh_socket ());
          io;
        }
    with
    | Ok node -> node
    | Error e -> Alcotest.failf "node: %s" e
  in
  Fun.protect
    ~finally:(fun () -> Jim_shard.Node.stop node)
    (fun () -> f (Serving.address node))

(* A bare line-framed socket, so the tests see exactly when reply bytes
   arrive and can put several requests in one write. *)
type raw = { fd : Unix.file_descr; inbox : Buffer.t }

let raw_connect address =
  let fd = Wire.socket_for address in
  Unix.connect fd (Wire.sockaddr_of address);
  { fd; inbox = Buffer.create 256 }

let raw_send c reqs =
  let s = String.concat "" (List.map (fun r -> Pr.request_to_string r ^ "\n") reqs) in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

let readable c seconds =
  match Unix.select [ c.fd ] [] [] seconds with [], _, _ -> false | _ -> true

(* The next [n] replies, in arrival order. *)
let raw_recv c n =
  let chunk = Bytes.create 4096 in
  let rec lines acc k =
    if k = 0 then List.rev acc
    else
      let text = Buffer.contents c.inbox in
      match String.index_opt text '\n' with
      | Some i ->
        Buffer.clear c.inbox;
        Buffer.add_string c.inbox (String.sub text (i + 1) (String.length text - i - 1));
        let reply =
          match Pr.response_of_string (String.sub text 0 i) with
          | Ok r -> r
          | Error e -> Alcotest.failf "bad reply: %s" (Pr.error_to_string e)
        in
        lines (reply :: acc) (k - 1)
      | None ->
        if not (readable c 10.) then Alcotest.fail "no reply within 10 s";
        let got = Unix.read c.fd chunk 0 (Bytes.length chunk) in
        if got = 0 then Alcotest.fail "server closed the connection";
        Buffer.add_subbytes c.inbox chunk 0 got;
        lines acc k
  in
  lines [] n

let raw_call c req =
  raw_send c [ req ];
  List.hd (raw_recv c 1)

(* Start a flights session and fetch its first question: the answer
   request that would journal it next. *)
let answer_request c ~seed =
  let session =
    match
      raw_call c
        (Pr.Start_session { source = Pr.Builtin "flights"; strategy = "random"; seed })
    with
    | Pr.Started { session; _ } -> session
    | other -> Alcotest.failf "start: %s" (Pr.response_to_string other)
  in
  match raw_call c (Pr.Get_question { session }) with
  | Pr.Question (Some q) -> Pr.Answer { session; cls = q.Pr.cls; label = State.Pos }
  | other -> Alcotest.failf "question: %s" (Pr.response_to_string other)

let is_answered = function Pr.Answered _ -> true | _ -> false

let test_reply_waits_for_fsync () =
  let held = Atomic.make false and entered = Atomic.make false in
  let gate () =
    if Atomic.get held then begin
      Atomic.set entered true;
      while Atomic.get held do
        Thread.delay 0.002
      done
    end
  in
  with_gated_node gate @@ fun address ->
  (* released on every path, or stopping the node blocks in its fsync *)
  Fun.protect ~finally:(fun () -> Atomic.set held false) @@ fun () ->
  let c = raw_connect address in
  let answer = answer_request c ~seed:1 in
  Atomic.set held true;
  raw_send c [ answer ];
  let rec await_fsync k =
    if not (Atomic.get entered) then
      if k = 0 then Alcotest.fail "the answer never reached its fsync"
      else begin
        Thread.delay 0.005;
        await_fsync (k - 1)
      end
  in
  await_fsync 400;
  Alcotest.(check bool) "no reply while the fsync is held" false (readable c 0.1);
  Atomic.set held false;
  Alcotest.(check bool) "the reply follows the fsync" true
    (is_answered (List.hd (raw_recv c 1)));
  Unix.close c.fd

let test_one_fsync_per_turn () =
  let fsyncs = Atomic.make 0 in
  with_gated_node
    (fun () -> Atomic.incr fsyncs)
    (fun address ->
      let c = raw_connect address in
      let answers = List.init 8 (fun i -> answer_request c ~seed:(10 + i)) in
      let before = Atomic.get fsyncs in
      raw_send c answers;
      let replies = raw_recv c 8 in
      List.iteri
        (fun i r ->
          if not (is_answered r) then
            Alcotest.failf "answer %d: %s" i (Pr.response_to_string r))
        replies;
      Alcotest.(check int) "one fsync covers all eight answers" 1
        (Atomic.get fsyncs - before);
      Unix.close c.fd)

let test_failed_barrier_fails_the_turn () =
  let failing = Atomic.make false in
  let gate () =
    if Atomic.get failing then raise (Unix.Unix_error (Unix.EIO, "fsync", ""))
  in
  with_gated_node gate (fun address ->
      let c = raw_connect address in
      let answers = List.init 6 (fun i -> answer_request c ~seed:(20 + i)) in
      let stats_of = function
        | Pr.Answer { session; _ } -> Pr.Stats { session }
        | _ -> assert false
      in
      (* six writes and two reads in one write, so one turn *)
      let turn =
        (List.hd answers :: stats_of (List.hd answers) :: List.tl answers)
        @ [ stats_of (List.nth answers 5) ]
      in
      Atomic.set failing true;
      raw_send c turn;
      let typed_error = function
        | Pr.Failed (Pr.Bad_request msg) ->
          String.length msg >= 14 && String.sub msg 0 14 = "internal error"
        | _ -> false
      in
      List.iteri
        (fun i (req, reply) ->
          match req with
          | Pr.Answer _ ->
            if not (typed_error reply) then
              Alcotest.failf "write %d of the failed turn: %s" i
                (Pr.response_to_string reply)
          | _ -> (
            match reply with
            | Pr.Session_stats _ -> ()
            | other -> Alcotest.failf "read %d: %s" i (Pr.response_to_string other)))
        (List.combine turn (raw_recv c (List.length turn)));
      (* the journal is poisoned: later writes keep failing *)
      Atomic.set failing false;
      Alcotest.(check bool) "a later write is refused" true
        (typed_error
           (raw_call c
              (Pr.Start_session
                 { source = Pr.Builtin "flights"; strategy = "random"; seed = 99 })));
      Unix.close c.fd)

let test_replies_in_request_order () =
  with_server (fun address _ ->
      let c = raw_connect address in
      let session =
        match
          raw_call c
            (Pr.Start_session
               {
                 source =
                   Pr.Synthetic
                     { n_attrs = 6; n_tuples = 300; domain = 8; goal_rank = 2; seed = 5 };
                 strategy = "lookahead-entropy";
                 seed = 5;
               })
        with
        | Pr.Started { session; _ } -> session
        | other -> Alcotest.failf "start: %s" (Pr.response_to_string other)
      in
      raw_send c [ Pr.Get_question { session }; Pr.Stats { session } ];
      (match raw_recv c 2 with
      | [ Pr.Question (Some _); Pr.Session_stats _ ] -> ()
      | replies ->
        Alcotest.failf "out of order: %s"
          (String.concat " | " (List.map Pr.response_to_string replies)));
      Unix.close c.fd)

let () =
  Alcotest.run "server"
    [
      ( "addresses",
        [ Alcotest.test_case "parse and round-trip" `Quick test_address_parsing ] );
      ( "concurrency",
        [
          Alcotest.test_case "32 concurrent clients, bit-identical" `Slow
            test_smoke_32_clients;
          Alcotest.test_case "32 clients sharing one catalog entry" `Slow
            test_smoke_32_clients_shared_entry;
          Alcotest.test_case "register/start-by-fingerprint drill" `Quick
            test_catalog_smoke_drill;
          Alcotest.test_case "32 clients over binary framing" `Slow
            test_smoke_32_clients_binary;
          Alcotest.test_case "32 pipelined sessions, 8 deep per connection"
            `Slow test_smoke_pipelined;
          Alcotest.test_case "framings are byte-identical" `Quick
            test_framings_bit_identical;
          Alcotest.test_case "1000 idle connections don't starve the loop" `Slow
            test_thousand_idle_connections;
          Alcotest.test_case "saturated server answers Server_busy" `Quick
            test_server_busy;
        ] );
      ( "wire counters",
        [
          Alcotest.test_case "netstats record the loop's work" `Quick
            test_netstats_counters;
          Alcotest.test_case "epoll backend on Linux" `Quick test_epoll_backend;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "idle-TTL eviction" `Quick test_ttl_eviction;
          Alcotest.test_case "Get_question is idempotent" `Quick
            test_get_question_idempotent;
          Alcotest.test_case "answer / undo / result" `Quick
            test_answer_undo_over_service;
          Alcotest.test_case "per-session stats" `Quick test_session_stats;
          Alcotest.test_case "transcript over the wire" `Quick
            test_get_transcript;
        ] );
      ( "protocol errors",
        [
          Alcotest.test_case "typed failure replies" `Quick test_bad_requests;
          Alcotest.test_case "inline CSV source" `Quick test_csv_inline_source;
        ] );
      ( "turn barrier",
        [
          Alcotest.test_case "a reply waits for its fsync" `Quick
            test_reply_waits_for_fsync;
          Alcotest.test_case "one fsync covers a pipelined turn" `Quick
            test_one_fsync_per_turn;
          Alcotest.test_case "a failed fsync fails the turn's writes" `Quick
            test_failed_barrier_fails_the_turn;
          Alcotest.test_case "a cold pick replies before a later stats" `Quick
            test_replies_in_request_order;
        ] );
    ]
