(* The sharded serve tier: consistent-hash ring properties (determinism
   and the qcheck remap-stability bound), durable router placement
   across restarts, the router proxying a full multi-client smoke on
   both framings (bit-identical to direct serve — Smoke's own oracle is
   the bar), catalog routing by fingerprint with aggregated stats, and
   an in-process kill-and-promote failover: acked history survives on
   the promoted standby, mutating requests in the failover window get
   [Shard_unavailable] (at-most-once), and the resumed session finishes
   bit-identical to the uninterrupted reference run.  Last, the node
   assembler: the idle sweep follows the TTL, [Repl_status] is routed by
   tag and reports the turn's unshipped records, [stats_line] is safe
   from a second thread while the loop serves, promotion keeps the
   service settings, and a failed start closes what it opened. *)

module P = Jim_api.Protocol
module Service = Jim_server.Service
module Wire = Jim_server.Wire
module Smoke = Jim_server.Smoke
module Store = Jim_store.Store
module Journal = Jim_store.Journal
module Memfs = Jim_fault.Memfs
module Ring = Jim_shard.Ring
module Rlog = Jim_shard.Rlog
module Router = Jim_shard.Router
module Standby = Jim_shard.Standby
module Repl = Jim_shard.Repl
module Node = Jim_shard.Node
open Jim_core

(* ------------------------------------------------------------------ *)
(* Ring: determinism and stability                                     *)

let keys n = List.init n (fun i -> Printf.sprintf "key-%d" i)

let placement_map ring ks =
  List.map
    (fun k ->
      match Ring.place ring k with
      | Some m -> (k, m)
      | None -> Alcotest.failf "empty ring placed nothing for %s" k)
    ks

let test_ring_deterministic () =
  let members = [ "shard-b"; "shard-a"; "shard-c" ] in
  let r1 = Ring.create members in
  (* same membership set, different construction order and route *)
  let r2 = Ring.create (List.rev members) in
  let r3 = Ring.remove (Ring.add r1 "shard-x") "shard-x" in
  let ks = keys 1000 in
  let p1 = placement_map r1 ks in
  Alcotest.(check bool) "order-independent" true (p1 = placement_map r2 ks);
  Alcotest.(check bool) "add/remove returns to identity" true
    (p1 = placement_map r3 ks);
  Alcotest.(check (list string)) "members sorted distinct"
    [ "shard-a"; "shard-b"; "shard-c" ]
    (Ring.members r1);
  (* every member owns something at 1000 keys / 64 vnodes *)
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " owns keys") true
        (List.exists (fun (_, o) -> o = m) p1))
    (Ring.members r1)

let test_ring_empty_and_args () =
  Alcotest.(check bool) "empty ring places nothing" true
    (Ring.place (Ring.create []) "k" = None);
  (match Ring.create ~vnodes:0 [ "a" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "vnodes=0 accepted");
  Alcotest.(check (list string)) "duplicates collapse" [ "a" ]
    (Ring.members (Ring.create [ "a"; "a"; "a" ]))

let ring_arb =
  QCheck.make
    ~print:(fun (n, pick) -> Printf.sprintf "%d members, pick %d" n pick)
    QCheck.Gen.(pair (int_range 2 8) (int_bound 100))

let n_keys = 400

(* Removing one member must move exactly the keys it owned (everything
   else stays put); adding one must move keys only TO it, and only
   about 1/(n+1) of them. *)
let ring_remove_stability =
  QCheck.Test.make ~count:60 ~name:"removal moves only the victim's keys"
    ring_arb (fun (n, pick) ->
      let members = List.init n (Printf.sprintf "shard-%d") in
      let victim = Printf.sprintf "shard-%d" (pick mod n) in
      let before = Ring.create members in
      let after = Ring.remove before victim in
      List.for_all
        (fun k ->
          match (Ring.place before k, Ring.place after k) with
          | Some o, Some o' -> o = victim || o' = o
          | _ -> false)
        (keys n_keys))

let ring_add_stability =
  QCheck.Test.make ~count:60 ~name:"addition moves ~1/(n+1), all to the joiner"
    ring_arb (fun (n, _) ->
      let members = List.init n (Printf.sprintf "shard-%d") in
      let before = Ring.create members in
      let after = Ring.add before "shard-new" in
      let moved = ref 0 in
      let ok =
        List.for_all
          (fun k ->
            match (Ring.place before k, Ring.place after k) with
            | Some o, Some o' ->
              if o' <> o then begin
                incr moved;
                o' = "shard-new"
              end
              else true
            | _ -> false)
          (keys n_keys)
      in
      (* expected n_keys/(n+1); 3x + slack keeps the bound sharp enough
         to catch a broken hash without flaking on vnode variance *)
      ok && !moved <= (3 * n_keys / (n + 1)) + 5)

(* ------------------------------------------------------------------ *)
(* Rlog codec                                                          *)

let test_rlog_roundtrip () =
  List.iter
    (fun e ->
      let s = Rlog.to_string e in
      match Rlog.of_string s with
      | Ok e' -> Alcotest.(check bool) ("roundtrip " ^ s) true (e = e')
      | Error m -> Alcotest.failf "parse %s: %s" s m)
    [
      Rlog.Member_added "s1";
      Rlog.Member_removed "s1";
      Rlog.Placed { session = 42; shard = "s2" };
      Rlog.Released { session = 42 };
      Rlog.Failed_over { shard = "s2" };
    ];
  match Rlog.of_string {|{"rl":"frob"}|} with
  | Ok _ -> Alcotest.fail "accepted unknown entry"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Router helpers: in-process shard upstreams                          *)

let create_node cfg =
  match Node.create cfg with
  | Ok node -> node
  | Error e -> Alcotest.failf "node: %s" e

(* An in-memory primary, reached through its wire entry point. *)
let memory_node () = create_node (Node.config Serving.memory)

(* A durable primary on [fs]'s "/data", optionally replicating. *)
let primary_config ?(settings = Node.default_settings) ?replicate_to fs =
  {
    (Node.config (Node.Primary { data_dir = Some "/data"; replicate_to })) with
    settings;
    io = Memfs.io fs;
  }

(* A batch path into [node]: each batch is one turn of the node. *)
let turn_of node lines = Array.map (fun (reply, _) -> Ok reply) (Node.turn node lines)
let node_upstream name node = Router.batch_upstream ~name (turn_of node)

let call router req =
  let line, _ = Router.handle_line router (P.request_to_string req) in
  match P.response_of_string line with
  | Ok r -> r
  | Error e -> Alcotest.failf "unparseable reply: %s" (P.error_to_string e)

let synthetic seed =
  P.Synthetic { n_attrs = 5; n_tuples = 40; domain = 8; goal_rank = 2; seed }

let oracle_of seed =
  let p =
    {
      Jim_workloads.Synthetic.n_attrs = 5;
      n_tuples = 40;
      domain = 8;
      goal_rank = 2;
      seed;
    }
  in
  Oracle.of_goal
    (Jim_workloads.Synthetic.generate p).Jim_workloads.Synthetic.goal

let expected_of ~seed ~strategy =
  let p =
    {
      Jim_workloads.Synthetic.n_attrs = 5;
      n_tuples = 40;
      domain = 8;
      goal_rank = 2;
      seed;
    }
  in
  let inst = Jim_workloads.Synthetic.generate p in
  let strat =
    match Strategy.of_string strategy with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  Session.run ~seed ~strategy:strat
    ~oracle:(Oracle.of_goal inst.Jim_workloads.Synthetic.goal)
    inst.Jim_workloads.Synthetic.relation

let start router ~seed ~strategy =
  match
    call router (P.Start_session { source = synthetic seed; strategy; seed })
  with
  | P.Started { session; _ } -> session
  | other -> Alcotest.failf "start: %s" (P.response_to_string other)

let answer_one router oracle id =
  match call router (P.Get_question { session = id }) with
  | P.Question None -> false
  | P.Question (Some { P.cls; sg; _ }) -> (
    match
      call router
        (P.Answer { session = id; cls; label = Oracle.label oracle sg })
    with
    | P.Answered _ -> true
    | other -> Alcotest.failf "answer: %s" (P.response_to_string other))
  | other -> Alcotest.failf "question: %s" (P.response_to_string other)

let result_of router id =
  match call router (P.Result { session = id }) with
  | P.Outcome o -> o
  | other -> Alcotest.failf "result: %s" (P.response_to_string other)

let mk_router ?io ?dir names_and_services =
  match
    Router.create ?io ?dir
      ~shards:
        (List.map (fun (n, s) -> node_upstream n s) names_and_services)
      ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "router: %s" e

(* ------------------------------------------------------------------ *)
(* Router: placement, journal, restart determinism                     *)

let test_router_spreads_and_journals () =
  let fs = Memfs.create () in
  let io = Memfs.io fs in
  let shards = List.init 3 (fun i -> (Printf.sprintf "s%d" i, memory_node ())) in
  let router = mk_router ~io ~dir:"/router" shards in
  let sessions = 24 in
  let ids =
    List.init sessions (fun i ->
        start router ~seed:(100 + i) ~strategy:"random")
  in
  let placed = List.map (fun id -> (id, Router.placement router id)) ids in
  List.iter
    (fun (id, p) ->
      if p = None then Alcotest.failf "session %d has no placement" id)
    placed;
  (* consistent hashing spreads 24 sessions over 3 shards *)
  let owners =
    List.sort_uniq compare (List.filter_map snd placed)
  in
  Alcotest.(check bool) "more than one shard used" true (List.length owners > 1);
  Alcotest.(check int) "router counts the placements" sessions
    (Router.session_count router);
  (* requests route by pin: every session answers where it lives *)
  List.iter
    (fun id ->
      match call router (P.Get_question { session = id }) with
      | P.Question _ -> ()
      | other -> Alcotest.failf "routed question: %s" (P.response_to_string other))
    ids;
  (* ring status reflects membership and load *)
  (match call router P.Ring_status with
  | P.Ring_info { shards = members; sessions = n } ->
    Alcotest.(check int) "three members" 3 (List.length members);
    Alcotest.(check int) "sessions counted" sessions n;
    List.iter
      (fun { P.promoted; lag; _ } ->
        Alcotest.(check bool) "nothing promoted" false promoted;
        Alcotest.(check bool) "no standby, no lag" true (lag = None))
      members
  | other -> Alcotest.failf "ring_status: %s" (P.response_to_string other));
  (* end releases the placement and journals it *)
  let victim = List.hd ids in
  (match call router (P.End_session { session = victim }) with
  | P.Ended -> ()
  | other -> Alcotest.failf "end: %s" (P.response_to_string other));
  Alcotest.(check (option string)) "placement released" None
    (Router.placement router victim);
  (* restart over the same journal: every surviving placement is
     rebuilt identically, and the ended session stays gone *)
  Router.close router;
  let router' = mk_router ~io ~dir:"/router" shards in
  Alcotest.(check int) "placements survive restart" (sessions - 1)
    (Router.session_count router');
  List.iter
    (fun (id, before) ->
      if id <> victim then
        Alcotest.(check (option string))
          (Printf.sprintf "session %d placed identically" id)
          before
          (Router.placement router' id))
    placed;
  Alcotest.(check (option string)) "released stays released" None
    (Router.placement router' victim);
  (* fresh ids never collide with journaled ones *)
  let fresh = start router' ~seed:999 ~strategy:"random" in
  Alcotest.(check bool) "fresh id past journaled ids" true
    (List.for_all (fun id -> fresh > id) ids)

let test_router_rejects_internal () =
  let router = mk_router [ ("s0", memory_node ()) ] in
  (match
     call router
       (P.Start_pinned
          { session = 9; source = synthetic 1; strategy = "random"; seed = 1 })
   with
  | P.Failed (P.Bad_request _) -> ()
  | other -> Alcotest.failf "start_pinned: %s" (P.response_to_string other));
  (match call router P.Promote with
  | P.Failed (P.Bad_request _) -> ()
  | other -> Alcotest.failf "promote: %s" (P.response_to_string other));
  match call router (P.Get_question { session = 123 }) with
  | P.Failed (P.Unknown_session 123) -> ()
  | other -> Alcotest.failf "unplaced session: %s" (P.response_to_string other)

(* ------------------------------------------------------------------ *)
(* Router over the wire: proxied smoke, both framings; catalog routing *)

let fresh_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jim-shard-%d-%d.sock" (Unix.getpid ()) !counter)

let with_wire_router shards f =
  let node =
    Serving.start
      (Jim_shard.Node.Router
         {
           data_dir = None;
           vnodes = 64;
           shards = List.map (fun (n, s) -> node_upstream n s) shards;
         })
      (Wire.Unix_path (fresh_socket ()))
  in
  Fun.protect
    ~finally:(fun () -> Jim_shard.Node.stop node)
    (fun () -> f (Serving.address node))

let smoke_through_router framing () =
  let shards = List.init 2 (fun i -> (Printf.sprintf "s%d" i, memory_node ())) in
  with_wire_router shards (fun addr ->
      let reports = Smoke.run ~clients:32 ~framing ~address:addr () in
      Alcotest.(check int) "all clients reported" 32 (List.length reports);
      List.iter
        (fun r ->
          if not r.Smoke.ok then
            Alcotest.failf "seed %d diverged through the router: %s"
              r.Smoke.seed r.Smoke.detail)
        reports)

let test_catalog_through_router () =
  let shards = List.init 3 (fun i -> (Printf.sprintf "s%d" i, memory_node ())) in
  with_wire_router shards (fun addr ->
      match Smoke.catalog_smoke ~clients:4 ~address:addr () with
      | Error e -> Alcotest.fail e
      | Ok (reports, stats) ->
        List.iter
          (fun r ->
            if not r.Smoke.ok then
              Alcotest.failf "catalog seed %d diverged: %s" r.Smoke.seed
                r.Smoke.detail)
          reports;
        (* one registration, every session a warm start off it — and all
           on ONE shard, because catalog traffic routes by fingerprint *)
        Alcotest.(check int) "one entry across all shards" 1
          stats.P.entries;
        Alcotest.(check bool) "warm starts hit" true (stats.P.hits >= 4);
        let with_entries =
          List.filter
            (fun (_, node) ->
              let catalog = Service.catalog (Serving.service node) in
              (Jim_catalog.Catalog.stats catalog).P.entries > 0)
            shards
        in
        Alcotest.(check int) "catalog entry lives on exactly one shard" 1
          (List.length with_entries))

(* ------------------------------------------------------------------ *)
(* Failover: kill the primary mid-session, promote, resume             *)

(* One shard in process: a durable primary replicating to [stb], which
   the router promotes — by a [Promote] payload, as over the wire — once
   [killed] makes the primary unreachable. *)
let failover_pair stb killed =
  let primary =
    create_node
      (primary_config ~replicate_to:(Repl.of_standby stb) (Memfs.create ()))
  in
  let standby =
    Node.of_standby (Node.config (Node.Standby { data_dir = "/standby" })) stb
  in
  let promote () =
    match Node.handle standby P.Promote with
    | P.Promoted _ -> Ok (turn_of standby)
    | other -> Error (P.response_to_string other)
  in
  let up =
    Router.batch_upstream ~name:"s0" ~promote (fun lines ->
        if !killed then Array.map (fun _ -> Error "connection refused (killed)") lines
        else turn_of primary lines)
  in
  match Router.create ~shards:[ up ] () with
  | Ok router -> (primary, standby, router)
  | Error e -> Alcotest.failf "router: %s" e

let test_failover_kill_and_promote () =
  let seed = 4242 and strategy = "lookahead-entropy" in
  let oracle = oracle_of seed in
  let expected = expected_of ~seed ~strategy in
  (* primary: a durable node on its own fs, streaming to a standby *)
  let stb = Standby.create ~io:(Memfs.io (Memfs.create ())) ~dir:"/standby" () in
  let killed = ref false in
  let acked = ref 0 in
  let primary, standby, router = failover_pair stb killed in
  let id = start router ~seed ~strategy in
  (* half the session through the primary *)
  for _ = 1 to 4 do
    if answer_one router oracle id then incr acked
  done;
  Alcotest.(check int) "four answers acked" 4 !acked;
  (* SIGKILL the primary.  The first request in the window is mutating:
     the router promotes but must NOT retry it (at-most-once). *)
  killed := true;
  (match
     call router (P.Answer { session = id; cls = 0; label = State.Pos })
   with
  | P.Failed (P.Shard_unavailable _) -> ()
  | other ->
    Alcotest.failf "mutating request during failover: %s"
      (P.response_to_string other));
  (* ring status shows the promotion *)
  (match call router P.Ring_status with
  | P.Ring_info { shards = [ { P.shard = "s0"; promoted; _ } ]; _ } ->
    Alcotest.(check bool) "promoted flag" true promoted
  | other -> Alcotest.failf "ring_status: %s" (P.response_to_string other));
  (* every acked answer survived onto the promoted standby *)
  (match call router (P.Stats { session = id }) with
  | P.Session_stats st ->
    Alcotest.(check int) "acked answers survived" !acked st.P.labeled
  | other -> Alcotest.failf "stats: %s" (P.response_to_string other));
  (* ... and the session resumes to the bit-identical outcome *)
  while answer_one router oracle id do
    ()
  done;
  Alcotest.(check bool) "resumed outcome bit-identical" true
    (Smoke.outcome_equal (result_of router id) expected);
  Router.close router;
  Node.stop primary;
  Node.stop standby;
  Standby.close stb

(* A non-mutating request in the failover window is retried
   transparently: the client never sees the crash. *)
let test_failover_transparent_read () =
  let seed = 77 and strategy = "random" in
  let oracle = oracle_of seed in
  let expected = expected_of ~seed ~strategy in
  let stb = Standby.create ~io:(Memfs.io (Memfs.create ())) ~dir:"/standby" () in
  let killed = ref false in
  let primary, standby, router = failover_pair stb killed in
  let id = start router ~seed ~strategy in
  ignore (answer_one router oracle id);
  killed := true;
  (* Get_question retries transparently onto the promoted standby *)
  (match call router (P.Get_question { session = id }) with
  | P.Question _ -> ()
  | other ->
    Alcotest.failf "read during failover: %s" (P.response_to_string other));
  while answer_one router oracle id do
    ()
  done;
  Alcotest.(check bool) "outcome bit-identical" true
    (Smoke.outcome_equal (result_of router id) expected);
  Router.close router;
  Node.stop primary;
  Node.stop standby;
  Standby.close stb

(* ------------------------------------------------------------------ *)
(* Pipelined turns: one batch per upstream, at-most-once per request   *)

(* A batch path into [node] that records every batch's size.  While
   [break_at] is [Some k], the transport breaks at index [k]: the
   requests before it are served, it and every later one get [Error]
   without reaching the node, and every later batch fails whole. *)
let counting_calls ?(break_at = ref None) batches node lines =
  batches := !batches @ [ Array.length lines ];
  let replies =
    Array.mapi
      (fun i line ->
        match !break_at with
        | Some k when i >= k -> Error "connection reset (test break)"
        | _ -> Ok (fst (Node.handle_line node line)))
      lines
  in
  if !break_at <> None then break_at := Some 0;
  replies

let batch_router ?io ?dir ?promote calls =
  match
    Router.create ?io ?dir
      ~shards:[ Router.batch_upstream ~name:"s0" ?promote calls ]
      ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "router: %s" e

let question_of router id =
  match call router (P.Get_question { session = id }) with
  | P.Question (Some { P.cls; sg; _ }) -> (cls, sg)
  | other -> Alcotest.failf "question: %s" (P.response_to_string other)

let start_line seed =
  P.request_to_string
    (P.Start_session { source = synthetic seed; strategy = "random"; seed })

let router_log fs =
  match Journal.scan ~io:(Memfs.io fs) "/router/router.wal" with
  | Ok (records, _) ->
    List.map
      (fun (_, payload) ->
        match Rlog.of_string payload with
        | Ok e -> e
        | Error e -> Alcotest.failf "router log entry: %s" e)
      records
  | Error (`Corrupt (off, why)) ->
    Alcotest.failf "router log corrupt at %d: %s" off why

(* A turn over several sessions on one shard reaches it as ONE batch,
   and its replies are byte-identical, in order, to the same requests
   relayed one at a time against an identical shard. *)
let test_turn_one_batch () =
  let setup () =
    let batches = ref [] in
    (batch_router (counting_calls batches (memory_node ())), batches)
  in
  let piped, batches = setup () and single, _ = setup () in
  let seeds = [ 31; 32; 33 ] in
  let ids =
    List.map (fun seed -> start piped ~seed ~strategy:"random") seeds
  in
  List.iter (fun seed -> ignore (start single ~seed ~strategy:"random")) seeds;
  let answer id seed =
    let cls, sg = question_of single id in
    ignore (question_of piped id);
    P.Answer { session = id; cls; label = Oracle.label (oracle_of seed) sg }
  in
  let a, b, c =
    match ids with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  let lines =
    Array.of_list
      (List.map P.request_to_string
         [
           answer a 31;
           P.Get_question { session = a };
           P.Top_questions { session = b; k = 2 };
           answer b 32;
           P.Undo { session = b };
           P.Result { session = c };
           P.End_session { session = c };
           P.Get_question { session = c };
           P.Get_transcript { session = a };
         ]
      @ [ start_line 34; "not json" ])
  in
  batches := [];
  let replies = Router.turn piped lines in
  Alcotest.(check (list int)) "one batch of every relayed request"
    [ Array.length lines - 1 ] !batches;
  let expected = Array.map (Router.handle_line single) lines in
  Alcotest.(check (array (pair string bool)))
    "replies in request order, byte-identical to one at a time" expected
    replies;
  Alcotest.(check (option string)) "ended session released" None
    (Router.placement piped c);
  Alcotest.(check (option string)) "new session placed" (Some "s0")
    (Router.placement piped (c + 1))

(* The transport breaks at index 2 of a batch: the two replies that
   arrived stand; a read retries on the promoted standby, a mutation
   answers shard_unavailable, a start is retried with a fresh id, and
   the promotion is journaled once. *)
let test_turn_break_mid_batch () =
  let fs = Memfs.create () in
  let stb = Standby.create ~io:(Memfs.io (Memfs.create ())) ~dir:"/standby" () in
  let primary =
    create_node
      (primary_config ~replicate_to:(Repl.of_standby stb) (Memfs.create ()))
  in
  let standby =
    Node.of_standby (Node.config (Node.Standby { data_dir = "/standby" })) stb
  in
  let promotions = ref 0 in
  let promote () =
    incr promotions;
    match Node.handle standby P.Promote with
    | P.Promoted _ -> Ok (counting_calls (ref []) standby)
    | other -> Error (P.response_to_string other)
  in
  let break_at = ref None in
  let router =
    batch_router ~io:(Memfs.io fs) ~dir:"/router" ~promote
      (counting_calls ~break_at (ref []) primary)
  in
  let a = start router ~seed:41 ~strategy:"random" in
  let b = start router ~seed:42 ~strategy:"random" in
  let c = start router ~seed:43 ~strategy:"random" in
  let cls_a, sg_a = question_of router a and cls_b, _ = question_of router b in
  break_at := Some 2;
  let replies =
    Router.turn router
      (Array.of_list
         (List.map P.request_to_string
            [
              P.Get_question { session = a };
              P.Answer
                { session = a; cls = cls_a; label = Oracle.label (oracle_of 41) sg_a };
              P.Stats { session = a };
              P.Answer { session = b; cls = cls_b; label = State.Pos };
              P.Start_session { source = synthetic 44; strategy = "random"; seed = 44 };
              P.Get_question { session = b };
              P.End_session { session = c };
            ]))
  in
  let reply i =
    match P.response_of_string (fst replies.(i)) with
    | Ok r -> r
    | Error e -> Alcotest.failf "reply %d: %s" i (P.error_to_string e)
  in
  (match (reply 0, reply 1) with
  | P.Question (Some _), P.Answered _ -> ()
  | r0, r1 ->
    Alcotest.failf "replies before the break: %s / %s" (P.response_to_string r0)
      (P.response_to_string r1));
  (match reply 2 with
  | P.Session_stats st ->
    Alcotest.(check int) "read retried on the standby, acked answer there" 1
      st.P.labeled
  | other -> Alcotest.failf "stats: %s" (P.response_to_string other));
  let unavailable what = function
    | P.Failed (P.Shard_unavailable _) -> ()
    | other -> Alcotest.failf "%s: %s" what (P.response_to_string other)
  in
  unavailable "answer after the break" (reply 3);
  unavailable "end after the break" (reply 6);
  (match reply 4 with
  | P.Started { session; _ } ->
    Alcotest.(check int) "start retried with a fresh id" (c + 2) session;
    Alcotest.(check (option string)) "first id released" None
      (Router.placement router (c + 1));
    Alcotest.(check (option string)) "fresh id placed" (Some "s0")
      (Router.placement router session)
  | other -> Alcotest.failf "start: %s" (P.response_to_string other));
  (match reply 5 with
  | P.Question _ -> ()
  | other -> Alcotest.failf "question: %s" (P.response_to_string other));
  Alcotest.(check (option string)) "unsent end keeps its pin" (Some "s0")
    (Router.placement router c);
  Alcotest.(check int) "promoted once" 1 !promotions;
  Alcotest.(check int) "one failed_over entry" 1
    (List.length
       (List.filter
          (function Rlog.Failed_over _ -> true | _ -> false)
          (router_log fs)));
  Router.close router;
  Node.stop primary;
  Node.stop standby;
  Standby.close stb

(* A turn of starts costs one router-log fsync, and every placement is
   on the durable image before its start_pinned reaches the shard. *)
let test_turn_one_log_sync () =
  let fs = Memfs.create () in
  let node = memory_node () in
  let pinned = ref [] in
  let calls lines =
    let durable =
      List.filter_map
        (function Rlog.Placed { session; _ } -> Some session | _ -> None)
        (router_log (Memfs.durable_image fs))
    in
    Array.iter
      (fun line ->
        match P.request_of_string line with
        | Ok (P.Start_pinned { session; _ }) ->
          pinned := (session, List.mem session durable) :: !pinned
        | _ -> ())
      lines;
    counting_calls (ref []) node lines
  in
  let router = batch_router ~io:(Memfs.io fs) ~dir:"/router" calls in
  let before = Memfs.fsyncs fs in
  let replies = Router.turn router (Array.init 5 (fun i -> start_line (50 + i))) in
  Alcotest.(check int) "one router-log fsync for the turn" 1
    (Memfs.fsyncs fs - before);
  Array.iter
    (fun (reply, _) ->
      if not (String.starts_with ~prefix:Router.started_prefix reply) then
        Alcotest.failf "start: %s" reply)
    replies;
  Alcotest.(check int) "five starts relayed" 5 (List.length !pinned);
  List.iter
    (fun (session, durable) ->
      if not durable then
        Alcotest.failf "session %d left before its placement was durable" session)
    !pinned;
  Router.close router

(* The router reads these replies by prefix: pin the prefixes to the
   codec's own output. *)
let test_reply_tags () =
  let check_prefix what prefix resp =
    let s = P.response_to_string resp in
    if not (String.starts_with ~prefix s) then
      Alcotest.failf "%s: %S is not a prefix of %S" what prefix s
  in
  Alcotest.(check string) "ended" (P.response_to_string P.Ended)
    Router.ended_reply;
  check_prefix "unknown_session" Router.unknown_session_prefix
    (P.Failed (P.Unknown_session 7));
  check_prefix "started" Router.started_prefix
    (P.Started
       { session = 3; arity = 2; classes = 3; tuples = 4; strategy = "random" });
  List.iter
    (fun resp ->
      if
        String.starts_with ~prefix:Router.unknown_session_prefix
          (P.response_to_string resp)
      then Alcotest.failf "%s read as unknown_session" (P.response_to_string resp))
    [ P.Failed (P.Shard_unavailable "x"); P.Failed (P.Bad_request "y"); P.Ended ]

(* ------------------------------------------------------------------ *)
(* Node: the one assembler                                             *)

let start_flights handle =
  match
    handle
      (P.Start_session
         { source = P.Builtin "flights"; strategy = "lookahead-entropy"; seed = 7 })
  with
  | P.Started { session; _ } -> session
  | other -> Alcotest.failf "start: %s" (P.response_to_string other)

(* The sweep interval follows the TTL: a 0.2 s TTL is swept every 0.5 s,
   so an idle session dies with no further request.  The test reads the
   node over the wire, as the loop owns it: each [Stats] poll touches
   the session, so polls are 0.8 s apart — more than the TTL plus one
   sweep interval — and the session is idle long enough between two. *)
let test_node_idle_ttl_sweeps () =
  let node =
    Serving.start
      ~settings:{ Node.default_settings with idle_ttl = 0.2 }
      Serving.memory
      (Wire.Unix_path (fresh_socket ()))
  in
  Fun.protect
    ~finally:(fun () -> Node.stop node)
    (fun () ->
      let c =
        match Wire.connect (Serving.address node) with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" e
      in
      let call req =
        match Wire.call c req with
        | Ok r -> r
        | Error e -> Alcotest.failf "call: %s" e
      in
      let session = start_flights call in
      let deadline = Unix.gettimeofday () +. 2.5 in
      let rec evicted () =
        Thread.delay 0.8;
        match call (P.Stats { session }) with
        | P.Failed (P.Unknown_session id) when id = session -> true
        | P.Session_stats _ when Unix.gettimeofday () < deadline -> evicted ()
        | P.Session_stats _ -> false
        | other -> Alcotest.failf "stats: %s" (P.response_to_string other)
      in
      let gone = evicted () in
      Wire.close c;
      Alcotest.(check bool) "idle session evicted within 2.5 s" true gone)

(* [Repl_status] is routed by tag, whatever the payload's length. *)
let test_node_padded_repl_status () =
  let stb = Standby.create ~io:(Memfs.io (Memfs.create ())) ~dir:"/standby" () in
  let padded = "{\"jim\":1," ^ String.make 60 ' ' ^ "\"req\":\"repl_status\"}" in
  Alcotest.(check bool) "longer than 64 bytes" true (String.length padded > 64);
  Alcotest.(check bool) "a valid repl_status" true
    (P.request_of_string padded = Ok P.Repl_status);
  let node =
    match
      Node.start
        {
          (primary_config ~replicate_to:(Repl.of_standby stb) (Memfs.create ()))
          with
          listen = Wire.Unix_path (fresh_socket ());
        }
    with
    | Ok node -> node
    | Error e -> Alcotest.failf "node: %s" e
  in
  Fun.protect
    ~finally:(fun () -> Node.stop node)
    (fun () ->
      List.iter
        (fun framing ->
          match Wire.connect ~framing (Serving.address node) with
          | Error e -> Alcotest.failf "connect: %s" e
          | Ok c -> (
            let reply = Wire.call_line c padded in
            Wire.close c;
            match Result.map P.response_of_string reply with
            | Ok (Ok (P.Repl_lag _)) -> ()
            | Ok (Ok other) ->
              Alcotest.failf "padded repl_status: %s" (P.response_to_string other)
            | Ok (Error e) -> Alcotest.failf "reply: %s" (P.error_to_string e)
            | Error e -> Alcotest.failf "call: %s" e))
        [ Wire.Line; Wire.Binary ])

(* [Repl_status] reports what the standby has yet to acknowledge: the
   records the current turn has staged, which its barrier ships. *)
let test_node_repl_lag () =
  let stb = Standby.create ~io:(Memfs.io (Memfs.create ())) ~dir:"/standby" () in
  let primary =
    create_node
      (primary_config ~replicate_to:(Repl.of_standby stb) (Memfs.create ()))
  in
  let session = start_flights (Node.handle primary) in
  let cls, sg =
    match Node.handle primary (P.Get_question { session }) with
    | P.Question (Some { P.cls; sg; _ }) -> (cls, sg)
    | other -> Alcotest.failf "question: %s" (P.response_to_string other)
  in
  let lag_in payloads =
    let replies = Node.turn primary (Array.map P.request_to_string payloads) in
    match P.response_of_string (fst replies.(Array.length replies - 1)) with
    | Ok (P.Repl_lag { records; bytes }) -> (records, bytes)
    | Ok other -> Alcotest.failf "repl_status: %s" (P.response_to_string other)
    | Error e -> Alcotest.failf "reply: %s" (P.error_to_string e)
  in
  let record =
    Journal.encode_record
      (Jim_store.Event.to_string
         (Jim_store.Event.Answered { session; cls; sg; label = State.Pos }))
  in
  Alcotest.(check (pair int int)) "the turn's answer is unacknowledged"
    (1, String.length record)
    (lag_in [| P.Answer { session; cls; label = State.Pos }; P.Repl_status |]);
  Alcotest.(check (pair int int)) "the barrier shipped it" (0, 0)
    (lag_in [| P.Repl_status |]);
  Node.stop primary;
  Standby.close stb

(* [stats_line] is the one call another thread makes while the loop
   serves ([jim serve --stats-every]): it must not disturb the sessions
   nor raise. *)
let test_node_stats_line_while_serving () =
  let node =
    match
      Node.start
        {
          (primary_config (Memfs.create ())) with
          listen = Wire.Unix_path (fresh_socket ());
          fsync = false;
        }
    with
    | Ok node -> node
    | Error e -> Alcotest.failf "node: %s" e
  in
  Fun.protect
    ~finally:(fun () -> Node.stop node)
    (fun () ->
      let serving = Atomic.make true and lines = ref 0 and failure = ref None in
      let reader =
        Thread.create
          (fun () ->
            try
              while Atomic.get serving do
                let line = Node.stats_line node in
                if not (String.starts_with ~prefix:"wire: " line) then
                  failwith ("stats line: " ^ line);
                incr lines;
                Thread.delay 0.001
              done
            with exn -> failure := Some (Printexc.to_string exn))
          ()
      in
      let reports = Smoke.run ~clients:8 ~address:(Serving.address node) () in
      Atomic.set serving false;
      Thread.join reader;
      Option.iter (Alcotest.failf "stats_line raised: %s") !failure;
      Alcotest.(check bool) "stats lines read while serving" true (!lines > 0);
      Alcotest.(check int) "all clients reported" 8 (List.length reports);
      List.iter
        (fun r ->
          if not r.Smoke.ok then
            Alcotest.failf "seed %d diverged: %s" r.Smoke.seed r.Smoke.detail)
        reports)

(* A crowd session that fails over keeps its crowd: the standby is
   promoted with the primary's settings. *)
let test_node_promotes_with_settings () =
  let settings =
    {
      Node.default_settings with
      crowd = Some { Jim_server.Coordinator.votes = 3; timeout = 30.; weighted = false };
    }
  in
  let stb = Standby.create ~io:(Memfs.io (Memfs.create ())) ~dir:"/standby" () in
  let primary =
    create_node
      (primary_config ~settings ~replicate_to:(Repl.of_standby stb)
         (Memfs.create ()))
  in
  let session = start_flights (Node.handle primary) in
  Node.stop primary;
  let standby = Node.of_standby { (Node.config (Node.Standby { data_dir = "/standby" })) with settings } stb in
  (match Node.handle standby P.Promote with
  | P.Promoted { sessions = 1; _ } -> ()
  | other -> Alcotest.failf "promote: %s" (P.response_to_string other));
  (match Node.handle standby (P.Answer { session; cls = 0; label = State.Pos }) with
  | P.Failed (P.Bad_request "session is crowd-labeled: answers arrive by vote") -> ()
  | other -> Alcotest.failf "direct answer: %s" (P.response_to_string other));
  (match Node.handle standby (P.Labeler_attach { session }) with
  | P.Labeler_attached _ -> ()
  | other -> Alcotest.failf "labeler attach: %s" (P.response_to_string other));
  (* one decode per payload, and a malformed one is still counted *)
  let _, parsed = Node.handle_line standby "{\"jim\":1,\"req\":" in
  Alcotest.(check bool) "malformed payload reported unparsed" false parsed;
  Node.stop standby;
  Standby.close stb

(* ------------------------------------------------------------------ *)
(* Replication across checkpoints                                      *)

module Event = Jim_store.Event
module Recovery = Jim_store.Recovery
module Snapshot = Jim_store.Snapshot

(* The store files under [dir], by name, with their bytes. *)
let files fs dir =
  Array.to_list ((Memfs.io fs).Jim_store.Io.readdir dir)
  |> List.sort compare
  |> List.map (fun name -> (name, Memfs.file fs (Filename.concat dir name)))

(* A stream shipped in journal order leaves the two directories
   byte-identical after every record: the primary checkpoints at the
   start of the record that finds its generation full, and the stream
   rotates the standby before shipping that record, so no checkpoint
   splits at different records.  Both also recover the same sessions:
   ids, concrete sources and surviving labels.  The sessions share one
   inline instance; the standby attaches after the primary has already
   journaled references to its snapshot's copy of the text, and at the
   end every session on the instance ends and a checkpoint drops the
   text before it is used again. *)
let test_standby_matches_every_generation () =
  let fs_p = Memfs.create () and fs_s = Memfs.create () in
  let store =
    match
      Store.open_dir ~fsync:false ~snapshot_every:4 ~io:(Memfs.io fs_p) "/data"
    with
    | Ok (s, _) -> s
    | Error e -> Alcotest.failf "open_dir: %s" e
  in
  let stb = Standby.create ~io:(Memfs.io fs_s) ~fsync:false ~dir:"/standby" () in
  let src = P.Csv_inline "a,b,c\n1,2,3\n4,5,6\n" in
  let sg =
    match Jim_partition.Partition.of_string "{0,1}{2}" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let started id =
    Event.Started
      { session = id; arity = 3; source = src; strategy = "random"; seed = id;
        fingerprint = "0a1b2c3d" }
  in
  let answered id =
    Event.Answered { session = id; cls = 0; sg; label = State.Pos }
  in
  let flights =
    Event.Started
      { session = 30; arity = 3; source = P.Builtin "flights";
        strategy = "random"; seed = 0; fingerprint = "00000000" }
  in
  let load fs dir =
    match Recovery.load ~io:(Memfs.io fs) dir with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s: %s" dir e
  in
  let render (r : Recovery.t) =
    List.iter
      (fun s ->
        match s.Recovery.source with
        | P.Catalog _ ->
          Alcotest.failf "session %d recovered a reference" s.Recovery.id
        | _ -> ())
      r.Recovery.sessions;
    Snapshot.to_string
      { Snapshot.next_id = r.Recovery.next_id;
        sessions = List.map Recovery.snapshot_session r.Recovery.sessions }
  in
  (* Before attaching: a checkpoint, then two starts referring to it. *)
  List.iter (Store.record store)
    [ started 1; answered 1; answered 1; answered 1; started 2; started 3 ];
  let repl =
    match Repl.attach store (Repl.of_standby stb) with
    | Ok r -> r
    | Error e -> Alcotest.failf "attach: %s" e
  in
  let ship =
    List.iter (fun ev ->
        Store.record store ev;
        Repl.send repl ev;
        let p = load fs_p "/data" and s = load fs_s "/standby" in
        let what = Printf.sprintf "at %s" (Event.to_string ev) in
        Alcotest.(check int) (what ^ ": generation") p.Recovery.generation
          s.Recovery.generation;
        Alcotest.(check string) (what ^ ": sessions") (render p) (render s);
        Alcotest.(check (list (pair string (option string))))
          (what ^ ": no split, files byte-identical")
          (files fs_p "/data") (files fs_s "/standby"))
  in
  ship
    (List.concat_map
       (fun id ->
         [ started id; answered id; answered (id - 1) ]
         @ (if id mod 3 = 0 then [ Event.Undone { session = id } ] else [])
         @ if id mod 4 = 0 then [ Event.Ended { session = id - 2 } ] else [])
       (List.init 8 (fun i -> i + 4)));
  ship
    (List.map
       (fun s -> Event.Ended { session = s.Recovery.id })
       (load fs_p "/data").Recovery.sessions
    @ [ flights; answered 30; answered 30; answered 30; answered 30;
        started 31; started 32 ]);
  if Store.generation store < 4 then
    Alcotest.failf "only %d checkpoints crossed" (Store.generation store);
  Repl.close repl;
  Store.close store

(* A primary ships the payloads its store journaled, byte for byte:
   sessions on one inline instance put its text on the stream at most
   once per generation, where re-encoding each concrete event would ship
   it with every start, and the two directories stay byte-identical. *)
let test_ships_what_was_written () =
  let fs_p = Memfs.create () and fs_s = Memfs.create () in
  let stb = Standby.create ~io:(Memfs.io fs_s) ~fsync:false ~dir:"/standby" () in
  let gen = ref 0 and shipped = ref [] in
  let target =
    let t = Repl.of_standby stb in
    {
      t with
      Repl.rotate =
        (fun ~gen:g ->
          gen := g;
          t.Repl.rotate ~gen:g);
      append_batch =
        (fun records ->
          shipped := List.map (fun r -> (!gen, r)) records @ !shipped;
          t.Repl.append_batch records);
    }
  in
  let primary =
    create_node
      {
        (primary_config ~replicate_to:target fs_p) with
        snapshot_every = 8;
        fsync = false;
      }
  in
  let inst =
    Jim_workloads.Synthetic.generate
      { Jim_workloads.Synthetic.n_attrs = 6; n_tuples = 400; domain = 6;
        goal_rank = 2; seed = 5 }
  in
  let src =
    P.Csv_inline (Jim_relational.Csv.to_string inst.Jim_workloads.Synthetic.relation)
  in
  let oracle = Oracle.of_goal inst.Jim_workloads.Synthetic.goal in
  let text = Jim_api.Codec.to_string P.source src in
  let holds payload =
    let n = String.length text in
    let rec go i =
      i + n <= String.length payload && (String.sub payload i n = text || go (i + 1))
    in
    go 0
  in
  let n = 12 in
  for seed = 1 to n do
    let session =
      match
        Node.handle primary (P.Start_session { source = src; strategy = "random"; seed })
      with
      | P.Started { session; _ } -> session
      | other -> Alcotest.failf "start: %s" (P.response_to_string other)
    in
    for _ = 1 to 2 do
      match Node.handle primary (P.Get_question { session }) with
      | P.Question (Some { P.cls; sg; _ }) ->
        let label = Oracle.label oracle sg in
        ignore (Node.handle primary (P.Answer { session; cls; label }))
      | _ -> ()
    done;
    if seed mod 3 = 0 then ignore (Node.handle primary (P.End_session { session }));
    Alcotest.(check (list (pair string (option string))))
      (Printf.sprintf "after session %d: files byte-identical" seed)
      (files fs_p "/data") (files fs_s "/standby")
  done;
  let carrying =
    List.filter_map
      (fun (g, record) ->
        match Journal.decode_record record with
        | Ok payload when holds payload -> Some g
        | Ok _ -> None
        | Error e -> Alcotest.failf "shipped record: %s" e)
      !shipped
  in
  if !gen < 2 then Alcotest.failf "only %d checkpoints crossed" !gen;
  if carrying = [] then Alcotest.fail "the instance text was never shipped";
  List.iter
    (fun g ->
      Alcotest.(check int)
        (Printf.sprintf "records carrying the text in generation %d" g)
        1
        (List.length (List.filter (( = ) g) carrying)))
    (List.sort_uniq compare carrying);
  Node.stop primary

(* Hostile stream control: a rotate the standby cannot follow is an
   error, and the files stay as they were. *)
let refused_rotate ~what setup gen =
  let fs = Memfs.create () in
  let stb = Standby.create ~io:(Memfs.io fs) ~fsync:false ~dir:"/standby" () in
  setup stb;
  let before = files fs "/standby" and position = Standby.position stb in
  (match Standby.rotate stb ~gen with
  | Ok () -> Alcotest.failf "%s: rotate accepted" what
  | Error _ -> ());
  Alcotest.(check (list (pair string (option string))))
    (what ^ ": files untouched") before (files fs "/standby");
  Alcotest.(check (pair int int)) (what ^ ": position") position
    (Standby.position stb);
  Standby.close stb

let test_standby_rotate_before_install () =
  refused_rotate ~what:"rotate before install" ignore 1

let test_standby_rotate_backwards () =
  let started =
    Event.Started
      { session = 1; arity = 4; source = P.Builtin "flights";
        strategy = "random"; seed = 1; fingerprint = "00000000" }
  in
  let setup stb =
    let ok = function Ok _ -> () | Error e -> Alcotest.fail e in
    ok (Standby.install stb ~gen:0 ~snapshot:None);
    ok (Standby.apply_batch stb
          [ Jim_store.Journal.encode_record (Event.to_string started) ]);
    ok (Standby.rotate stb ~gen:3)  (* skipping forward is legal *)
  in
  refused_rotate ~what:"rotate backwards" setup 2

(* A failed restore closes what the node opened: the replication target
   exactly once, and the store so it can be opened again. *)
let test_node_closes_on_error () =
  let fs = Memfs.create () in
  (match Store.open_dir ~io:(Memfs.io fs) "/data" with
  | Error e -> Alcotest.failf "open_dir: %s" e
  | Ok (store, _) ->
    (* a session whose instance no longer matches its fingerprint *)
    Store.record store
      (Jim_store.Event.Started
         {
           session = 1;
           arity = 4;
           source = P.Builtin "flights";
           strategy = "random";
           seed = 1;
           fingerprint = "drifted";
         });
    Store.close store);
  let closes = ref 0 in
  let target =
    {
      Repl.describe = "counting target";
      install = (fun ~gen:_ ~snapshot:_ -> Ok ());
      rotate = (fun ~gen:_ -> Ok ());
      append_batch = (fun records -> Ok (0, List.length records));
      close = (fun () -> incr closes);
    }
  in
  (match Node.create (primary_config ~replicate_to:target fs) with
  | Ok _ -> Alcotest.fail "a drifted session restored"
  | Error _ -> ());
  Alcotest.(check int) "target closed exactly once" 1 !closes;
  match Store.open_dir ~io:(Memfs.io fs) "/data" with
  | Ok (store, _) -> Store.close store
  | Error e -> Alcotest.failf "re-open after the failed start: %s" e

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "shard"
    [
      ( "ring",
        [
          Alcotest.test_case "placement is a pure function of membership"
            `Quick test_ring_deterministic;
          Alcotest.test_case "empty ring, bad vnodes, duplicates" `Quick
            test_ring_empty_and_args;
          QCheck_alcotest.to_alcotest ring_remove_stability;
          QCheck_alcotest.to_alcotest ring_add_stability;
        ] );
      ( "rlog",
        [ Alcotest.test_case "entry codec roundtrip" `Quick test_rlog_roundtrip ] );
      ( "router",
        [
          Alcotest.test_case "placements spread, journal, survive restart"
            `Quick test_router_spreads_and_journals;
          Alcotest.test_case "internal messages rejected at the front" `Quick
            test_router_rejects_internal;
        ] );
      ( "wire",
        [
          Alcotest.test_case "32-client smoke through the router (line)"
            `Quick
            (smoke_through_router Wire.Line);
          Alcotest.test_case "32-client smoke through the router (binary)"
            `Quick
            (smoke_through_router Wire.Binary);
          Alcotest.test_case "catalog routes by fingerprint, stats aggregate"
            `Quick test_catalog_through_router;
        ] );
      ( "failover",
        [
          Alcotest.test_case "kill, promote, at-most-once, bit-identical"
            `Quick test_failover_kill_and_promote;
          Alcotest.test_case "reads retry transparently across failover"
            `Quick test_failover_transparent_read;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "one batch per upstream, replies byte-identical"
            `Quick test_turn_one_batch;
          Alcotest.test_case "break mid-batch: at-most-once per request"
            `Quick test_turn_break_mid_batch;
          Alcotest.test_case "one router-log fsync, placements durable first"
            `Quick test_turn_one_log_sync;
          Alcotest.test_case "reply tags pinned to the codec" `Quick
            test_reply_tags;
        ] );
      ( "node",
        [
          Alcotest.test_case "idle sessions swept on the TTL's interval"
            `Quick test_node_idle_ttl_sweeps;
          Alcotest.test_case "padded repl_status routed by tag" `Quick
            test_node_padded_repl_status;
          Alcotest.test_case "repl_status reports the turn's unshipped records"
            `Quick test_node_repl_lag;
          Alcotest.test_case "stats_line from another thread while serving"
            `Quick test_node_stats_line_while_serving;
          Alcotest.test_case "promotion keeps the crowd settings" `Quick
            test_node_promotes_with_settings;
          Alcotest.test_case "failed restore closes what it opened" `Quick
            test_node_closes_on_error;
        ] );
      ( "standby",
        [
          Alcotest.test_case "standby recovers the same sessions every generation"
            `Quick test_standby_matches_every_generation;
          Alcotest.test_case "ships what the store wrote" `Quick
            test_ships_what_was_written;
          Alcotest.test_case "rotate before install is refused" `Quick
            test_standby_rotate_before_install;
          Alcotest.test_case "rotate backwards is refused" `Quick
            test_standby_rotate_backwards;
        ] );
    ]
