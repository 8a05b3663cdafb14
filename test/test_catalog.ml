(* Instance-catalog tests: the once-per-entry invariants (fingerprint
   and derivation counted exactly once no matter how many sessions
   start), physical sharing of interned entries, warm-started engines
   pinned bit-identical to cold per-session engines (qcheck), an entry's
   live heap staying flat across sessions, LRU eviction with pinned
   entries exempt, and the eviction + re-register round-trip. *)

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
  Alcotest.(check bool) "same row map" true (a.Catalog.row_class == b.Catalog.row_class)

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

(* Sources key the catalog by value: an equal inline text in another
   string is a hit, with no second fingerprint or derivation, and the
   entry keeps the text it was first given rather than a copy. *)
let test_equal_texts_one_key () =
  let cat = Catalog.create () in
  let text = "a,b,c\n1,2,1\n3,\"x,y\",3\n" in
  let copy = Bytes.to_string (Bytes.of_string text) in
  Alcotest.(check bool) "distinct strings" false (text == copy);
  let a = resolve_ok cat (P.Csv_inline text) in
  let b = resolve_ok cat (P.Csv_inline copy) in
  Alcotest.(check bool) "one entry" true (a == b);
  let s = Catalog.stats cat in
  Alcotest.(check int) "one miss" 1 s.P.misses;
  Alcotest.(check int) "one hit" 1 s.P.hits;
  Alcotest.(check int) "one fingerprint" 1 s.P.fingerprints;
  Alcotest.(check int) "one derivation" 1 s.P.derivations;
  Alcotest.(check bool) "origin is the first text itself" true
    (match a.Catalog.origin with P.Csv_inline t -> t == text | _ -> false);
  Catalog.release cat a;
  Catalog.release cat b

(* ------------------------------------------------------------------ *)
(* Warm engines = cold engines, bit for bit                            *)

(* The property a shared entry must satisfy: an engine built off a
   (possibly already-used) catalog entry runs the same questions to the
   same outcome as a private cold engine.  Runs each session twice
   through the shared entry, so the second starts off an entry a session
   has already used. *)
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

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)

(* An entry holds its derivation and nothing that grows with use: each
   pick's scorer memo is dropped with the pick.  After 5
   lookahead-entropy sessions have warmed a 6-attribute, 400-tuple entry,
   40 more sessions with other goals leave the live heap where it was,
   give or take 64 KiB (a memo that outlived its pick would keep one row
   per state those sessions visited). *)
let test_entry_heap_flat () =
  let source =
    P.Synthetic { n_attrs = 6; n_tuples = 400; domain = 6; goal_rank = 2; seed = 1 }
  in
  let cat = Catalog.create () in
  let e = resolve_ok cat source in
  let classes = e.Catalog.classes in
  let sessions lo hi =
    for i = lo to hi - 1 do
      let goal = classes.(i mod Array.length classes).Sigclass.sg in
      let o =
        Session.run_engine ~seed:i ~strategy:Strategy.lookahead_entropy
          ~oracle:(Oracle.of_goal goal) (Catalog.engine e)
      in
      if o.Session.contradiction then Alcotest.fail "oracle contradicted itself"
    done
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  sessions 0 5;
  let before = live () in
  sessions 5 45;
  let after = live () in
  if after - before > 64 * 1024 then
    Alcotest.failf "live heap grew by %d bytes over 40 sessions" (after - before);
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
          Alcotest.test_case "equal texts, one key" `Quick
            test_equal_texts_one_key;
        ] );
      ("determinism", [ prop_warm_bit_identical ]);
      ( "memo",
        [
          Alcotest.test_case "live heap flat across 40 sessions" `Quick
            test_entry_heap_flat;
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
