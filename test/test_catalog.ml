(* Instance-catalog tests: the once-per-entry invariants (fingerprint
   and derivation counted exactly once no matter how many sessions
   start), physical sharing of interned entries, warm-started engines
   pinned bit-identical to cold per-session engines (qcheck), LRU
   eviction with pinned entries exempt, and the eviction + re-register
   round-trip. *)

module Catalog = Jim_catalog.Catalog
module Service = Jim_server.Service
module Smoke = Jim_server.Smoke
module P = Jim_api.Protocol
module W = Jim_workloads
open Jim_core

let qtest ?(count = 30) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let synthetic ?(n_tuples = 40) seed =
  P.Synthetic { n_attrs = 5; n_tuples; domain = 8; goal_rank = 2; seed }

let params_of = function
  | P.Synthetic { n_attrs; n_tuples; domain; goal_rank; seed } ->
    { W.Synthetic.n_attrs; n_tuples; domain; goal_rank; seed }
  | _ -> assert false

let resolve_ok cat src =
  match Catalog.resolve cat src with
  | Ok e -> e
  | Error err -> Alcotest.failf "resolve: %s" (P.error_to_string err)

(* ------------------------------------------------------------------ *)
(* Once-per-entry counters                                             *)

let test_fingerprint_once () =
  let cat = Catalog.create () in
  let src = synthetic 11 in
  let n = 10 in
  let entries = List.init n (fun _ -> resolve_ok cat src) in
  let s = Catalog.stats cat in
  Alcotest.(check int) "fingerprinted exactly once" 1 s.P.fingerprints;
  Alcotest.(check int) "derived exactly once" 1 s.P.derivations;
  Alcotest.(check int) "one miss" 1 s.P.misses;
  Alcotest.(check int) "rest were hits" (n - 1) s.P.hits;
  Alcotest.(check int) "one entry" 1 s.P.entries;
  Alcotest.(check int) "all pinned" n s.P.pinned;
  List.iter (Catalog.release cat) entries;
  Alcotest.(check int) "all released" 0 (Catalog.stats cat).P.pinned

(* The service must inherit the invariant: many sessions, one
   fingerprint, one derivation — the PR-6 per-session fingerprinting is
   the bug this pins closed. *)
let test_service_fingerprint_once () =
  let cat = Catalog.create () in
  let service = Service.create ~catalog:cat () in
  let n = 8 in
  let sessions =
    List.init n (fun i ->
        match
          Service.handle service
            (P.Start_session
               { source = synthetic 11; strategy = "random"; seed = i })
        with
        | P.Started { session; _ } -> session
        | other -> Alcotest.failf "start: %s" (P.response_to_string other))
  in
  let s = Catalog.stats cat in
  Alcotest.(check int) "8 sessions, 1 fingerprint" 1 s.P.fingerprints;
  Alcotest.(check int) "8 sessions, 1 derivation" 1 s.P.derivations;
  Alcotest.(check int) "every session pins" n s.P.pinned;
  List.iter
    (fun id -> ignore (Service.handle service (P.End_session { session = id })))
    sessions;
  Alcotest.(check int) "ended sessions unpin" 0 (Catalog.stats cat).P.pinned;
  Alcotest.(check int) "entry stays warm" 1 (Catalog.stats cat).P.entries

let test_physical_sharing () =
  let cat = Catalog.create () in
  let a = resolve_ok cat (synthetic 3) in
  let b = resolve_ok cat (synthetic 3) in
  Alcotest.(check bool) "same entry" true (a == b);
  Alcotest.(check bool) "same classes array" true (a.Catalog.classes == b.Catalog.classes);
  Alcotest.(check bool) "same scorer cache" true (a.Catalog.cache == b.Catalog.cache)

(* Two different concrete sources carrying the same data alias to one
   entry: fingerprinted twice (each source once), derived once.  The
   texts differ ("01" vs "1") but load to the same typed relation, so
   the canonical CSVs — and hence the fingerprints — coincide. *)
let test_alias_same_data () =
  let cat = Catalog.create () in
  let a = resolve_ok cat (P.Csv_inline "a,b\n1,2\n3,4\n") in
  let b = resolve_ok cat (P.Csv_inline "a,b\n01,2\n3,4\n") in
  Alcotest.(check bool) "aliased to the same entry" true (a == b);
  let s = Catalog.stats cat in
  Alcotest.(check int) "two sources fingerprinted" 2 s.P.fingerprints;
  Alcotest.(check int) "one derivation" 1 s.P.derivations;
  Alcotest.(check int) "one entry" 1 s.P.entries;
  Catalog.release cat a;
  Catalog.release cat b

(* ------------------------------------------------------------------ *)
(* Warm engines = cold engines, bit for bit                            *)

(* The property the shared scorer memo must satisfy: an engine built off
   a (possibly already-warm) catalog entry runs the same questions to
   the same outcome as a private cold engine.  Runs each pick twice
   through the shared entry so the second run reads a populated memo. *)
let prop_warm_bit_identical =
  qtest "warm-started engines bit-identical to cold runs"
    QCheck.(
      make
        ~print:(fun (inst, seed, strat) ->
          Printf.sprintf "instance %d, seed %d, %s" inst seed strat)
        Gen.(
          let* inst = int_range 0 5 in
          let* seed = int_range 0 1000 in
          let* strat =
            oneofl [ "lookahead-entropy"; "random"; "lookahead-maximin" ]
          in
          return (inst, seed, strat)))
    (fun (inst, seed, strat) ->
      let cat = Catalog.create () in
      let source = synthetic ~n_tuples:30 inst in
      let gen = W.Synthetic.generate (params_of source) in
      let oracle = Oracle.of_goal gen.W.Synthetic.goal in
      let strategy =
        match Strategy.of_string strat with
        | Ok s -> s
        | Error m -> QCheck.Test.fail_report m
      in
      let cold =
        Session.run ~seed ~strategy ~oracle gen.W.Synthetic.relation
      in
      let entry = resolve_ok cat source in
      let warm () =
        Session.run_engine ~seed ~strategy ~oracle (Catalog.engine entry)
      in
      let first = warm () in
      let second = warm () in
      Catalog.release cat entry;
      Smoke.outcome_equal cold first && Smoke.outcome_equal cold second)

(* The same bar under a memo budget so small that every stripe holds at
   most one row: each pick evicts, and the picks must not move.  The
   warm engine is {!Catalog.engine}'s, with the entry's memo swapped for
   the tiny one. *)
let prop_warm_bit_identical_evicting =
  qtest "warm-started engines bit-identical to cold runs, evicting memo"
    QCheck.(
      make
        ~print:(fun (inst, seed, strat) ->
          Printf.sprintf "instance %d, seed %d, %s" inst seed strat)
        Gen.(
          let* inst = int_range 0 5 in
          let* seed = int_range 0 1000 in
          let* strat = oneofl [ "lookahead-entropy"; "lookahead-maximin" ] in
          return (inst, seed, strat)))
    (fun (inst, seed, strat) ->
      let cat = Catalog.create () in
      let source = synthetic ~n_tuples:30 inst in
      let gen = W.Synthetic.generate (params_of source) in
      let oracle = Oracle.of_goal gen.W.Synthetic.goal in
      let strategy =
        match Strategy.of_string strat with
        | Ok s -> s
        | Error m -> QCheck.Test.fail_report m
      in
      let cold =
        Session.run ~seed ~strategy ~oracle gen.W.Synthetic.relation
      in
      let e = resolve_ok cat source in
      let cache = Scorer.new_cache ~budget_bytes:16 () in
      let warm () =
        Session.run_engine ~seed ~strategy ~oracle
          (Session.of_classes ~cache ~statuses:e.Catalog.initial_statuses
             ~row_class:e.Catalog.row_class ~n:e.Catalog.arity
             e.Catalog.classes)
      in
      let first = warm () in
      let second = warm () in
      Catalog.release cat e;
      let evictions = (Scorer.memo_stats cache).Scorer.evictions in
      if evictions = 0 then QCheck.Test.fail_report "the memo never evicted";
      Smoke.outcome_equal cold first && Smoke.outcome_equal cold second)

(* ------------------------------------------------------------------ *)
(* Memo budget                                                         *)

(* A session on a 6-attribute, 400-tuple instance keeps the entry's memo
   within its budget after every pick.  With the default budget nothing
   is evicted; with a budget the session outgrows, the memo evicts, stays
   within it, and asks the same questions. *)
let test_memo_within_budget () =
  let source =
    P.Synthetic { n_attrs = 6; n_tuples = 400; domain = 8; goal_rank = 2; seed = 3 }
  in
  let gen = W.Synthetic.generate (params_of source) in
  let oracle = Oracle.of_goal gen.W.Synthetic.goal in
  let cat = Catalog.create () in
  let e = resolve_ok cat source in
  let picks = 4 in
  let session ~budget cache eng =
    let rng = Random.State.make [| 5 |] in
    List.init picks (fun _ ->
        match Session.question eng Strategy.lookahead_entropy rng with
        | None -> -1
        | Some ci ->
          let m = Scorer.memo_stats cache in
          if m.Scorer.bytes > budget then
            Alcotest.failf "memo holds %d bytes over its %d-byte budget"
              m.Scorer.bytes budget;
          let sg = e.Catalog.classes.(ci).Sigclass.sg in
          ignore (Session.answer eng ci (Oracle.label oracle sg));
          ci)
  in
  let unbounded =
    session ~budget:Scorer.default_budget_bytes e.Catalog.cache
      (Catalog.engine e)
  in
  let m = Scorer.memo_stats e.Catalog.cache in
  Alcotest.(check int) "default budget: no eviction" 0 m.Scorer.evictions;
  Alcotest.(check bool) "memo rows interned" true (m.Scorer.rows > 0);
  Alcotest.(check int) "catalog reports the entry's memo" m.Scorer.bytes
    (Catalog.stats cat).P.memo_bytes;
  let budget = m.Scorer.bytes / 2 in
  let tight = Scorer.new_cache ~budget_bytes:budget () in
  let bounded =
    session ~budget tight
      (Session.of_classes ~cache:tight ~statuses:e.Catalog.initial_statuses
         ~row_class:e.Catalog.row_class ~n:e.Catalog.arity e.Catalog.classes)
  in
  Alcotest.(check bool) "a tight budget evicts" true
    ((Scorer.memo_stats tight).Scorer.evictions > 0);
  Alcotest.(check (list int)) "same picks under eviction" unbounded bounded;
  Catalog.release cat e

(* ------------------------------------------------------------------ *)
(* Eviction                                                            *)

let test_eviction_lru () =
  let clock = ref 0.0 in
  let tick () = clock := !clock +. 1.0; !clock in
  let cat = Catalog.create ~max_entries:2 ~now:(fun () -> tick ()) () in
  let fp_of src =
    let e = resolve_ok cat src in
    let fp = e.Catalog.fingerprint in
    Catalog.release cat e;
    fp
  in
  let fp_a = fp_of (synthetic 1) in
  let _fp_b = fp_of (synthetic 2) in
  let _fp_c = fp_of (synthetic 3) in
  let s = Catalog.stats cat in
  Alcotest.(check int) "capped at two entries" 2 s.P.entries;
  Alcotest.(check int) "one eviction" 1 s.P.evictions;
  (* A was least recently used — it is the one gone *)
  (match Catalog.resolve cat (P.Catalog fp_a) with
  | Error (P.Unknown_instance fp) ->
    Alcotest.(check string) "miss names the fingerprint" fp_a fp
  | Ok _ -> Alcotest.fail "evicted entry still resolvable by fingerprint"
  | Error err -> Alcotest.failf "wrong error: %s" (P.error_to_string err));
  (* re-registering the same data gets the same fingerprint and makes
     the handle live again *)
  let again = resolve_ok cat (synthetic 1) in
  Alcotest.(check string) "re-register reproduces the fingerprint" fp_a
    again.Catalog.fingerprint;
  let by_fp = resolve_ok cat (P.Catalog fp_a) in
  Alcotest.(check bool) "fingerprint handle live again" true (again == by_fp);
  Catalog.release cat again;
  Catalog.release cat by_fp

let test_pinned_exempt_from_eviction () =
  let cat = Catalog.create ~max_entries:2 () in
  let a = resolve_ok cat (synthetic 1) in
  let b = resolve_ok cat (synthetic 2) in
  let c = resolve_ok cat (synthetic 3) in
  (* all three pinned: over cap, but nothing evictable *)
  let s = Catalog.stats cat in
  Alcotest.(check int) "pinned entries exceed the cap" 3 s.P.entries;
  Alcotest.(check int) "no eviction while pinned" 0 s.P.evictions;
  Catalog.release cat a;
  (* the next intern can now evict the one unpinned entry *)
  let d = resolve_ok cat (synthetic 4) in
  let s = Catalog.stats cat in
  Alcotest.(check int) "unpinned entry evicted" 1 s.P.evictions;
  Alcotest.(check int) "still over cap only by pins" 3 s.P.entries;
  List.iter (Catalog.release cat) [ b; c; d ]

(* Registration pins nothing: the Registered reply leaves the entry warm
   but immediately evictable, and a session by fingerprint then pins. *)
let test_register_then_start () =
  let service = Service.create () in
  let cat = Service.catalog service in
  let fp =
    match
      Service.handle service (P.Register_instance { source = synthetic 5 })
    with
    | P.Registered { fingerprint; arity; classes; tuples } ->
      Alcotest.(check int) "arity" 5 arity;
      Alcotest.(check bool) "classes counted" true (classes > 0);
      Alcotest.(check int) "tuples" 40 tuples;
      fingerprint
    | other -> Alcotest.failf "register: %s" (P.response_to_string other)
  in
  Alcotest.(check int) "registration leaves nothing pinned" 0
    (Catalog.stats cat).P.pinned;
  (match
     Service.handle service
       (P.Start_session { source = P.Catalog fp; strategy = "random"; seed = 1 })
   with
  | P.Started _ -> ()
  | other -> Alcotest.failf "start by fingerprint: %s" (P.response_to_string other));
  Alcotest.(check int) "session pins the entry" 1 (Catalog.stats cat).P.pinned;
  match
    Service.handle service
      (P.Start_session
         { source = P.Catalog "deadbeef"; strategy = "random"; seed = 1 })
  with
  | P.Failed (P.Unknown_instance "deadbeef") -> ()
  | other -> Alcotest.failf "bogus fingerprint: %s" (P.response_to_string other)

let () =
  Alcotest.run "catalog"
    [
      ( "counters",
        [
          Alcotest.test_case "fingerprint/derive once" `Quick
            test_fingerprint_once;
          Alcotest.test_case "once per entry across sessions" `Quick
            test_service_fingerprint_once;
          Alcotest.test_case "physical sharing" `Quick test_physical_sharing;
          Alcotest.test_case "alias on identical data" `Quick
            test_alias_same_data;
        ] );
      ( "determinism",
        [ prop_warm_bit_identical; prop_warm_bit_identical_evicting ] );
      ( "memo",
        [
          Alcotest.test_case "a session stays within the memo budget" `Quick
            test_memo_within_budget;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "LRU by idle time" `Quick test_eviction_lru;
          Alcotest.test_case "pinned entries exempt" `Quick
            test_pinned_exempt_from_eviction;
          Alcotest.test_case "register then start by fingerprint" `Quick
            test_register_then_start;
        ] );
    ]
