(* Server tests: the concurrent session manager and the socket loop.

   The headline test is the acceptance bar of the api_redesign issue:
   32 threaded clients drive oracle-guided sessions over a Unix-domain
   socket concurrently, and every outcome must be bit-identical to the
   in-process [Session.run] with the same instance, seed and strategy.
   Alongside it: max-sessions backpressure (a saturated server answers
   Server_busy, it does not hang), idle-TTL eviction with an injected
   clock, Get_question idempotency, undo over the wire, and protocol
   error replies straight off [Service.handle_line]. *)

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

let with_server ?max_sessions ?idle_ttl ?(threads = 40) f =
  let path = fresh_socket () in
  let service = Service.create ?max_sessions ?idle_ttl () in
  let server = Wire.serve ~threads service (Wire.Unix_path path) in
  Fun.protect
    ~finally:(fun () -> Wire.shutdown server)
    (fun () -> f (Wire.Unix_path path) service)

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
   bit-identical (the reorder buffer delivers replies in request
   order), and the wire counters must show the pipeline working:
   depth above 1, and responses sharing flushes. *)
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
  with_server ~max_sessions:2 (fun address service ->
      List.iter
        (fun framing ->
          match Smoke.busy_check ~framing ~address ~fill:2 () with
          | Ok () -> ()
          | Error e -> Alcotest.fail e)
        [ Wire.Line; Wire.Binary ];
      (* busy_check ended its sessions: capacity is free again *)
      Alcotest.(check int) "sessions cleaned up" 0 (Service.session_count service))

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
  let service = Service.create () in
  let line l =
    match Pr.response_of_string (Service.handle_line service l) with
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
     Service.handle service
       (Pr.Start_session
          { source = Pr.Builtin "flights"; strategy = "nonesuch"; seed = 0 })
   with
  | Pr.Failed (Pr.Unknown_strategy _) -> ()
  | other ->
    Alcotest.failf "expected Unknown_strategy: %s" (Pr.response_to_string other));
  (match
     Service.handle service
       (Pr.Start_session
          { source = Pr.Builtin "narnia"; strategy = "random"; seed = 0 })
   with
  | Pr.Failed (Pr.Bad_source _) -> ()
  | other -> Alcotest.failf "expected Bad_source: %s" (Pr.response_to_string other));
  (match
     Service.handle service
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
  let s = start_flights service ~seed:9 in
  match
    Service.handle service (Pr.Answer { session = s; cls = 99; label = State.Pos })
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
    ]
