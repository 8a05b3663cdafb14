(* Wire-protocol tests: qcheck pins decode ∘ encode = id for every
   request and response constructor of Jim_api.Protocol (including the
   stable sub-encodings), plus the JSON layer's corner cases and the
   Strategy name table the protocol rides on. *)

module P = Jim_partition.Partition
module Json = Jim_api.Json
module Codec = Jim_api.Codec
module Pr = Jim_api.Protocol
open Jim_core

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let gen_partition =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let rec build i maxv acc =
      if i >= n then return (P.of_rgs (Array.of_list (List.rev acc)))
      else
        let* v = int_bound (min (maxv + 1) (n - 1)) in
        build (i + 1) (max maxv v) (v :: acc)
    in
    build 0 (-1) [])

let gen_label = QCheck.Gen.oneofl [ State.Pos; State.Neg ]

let gen_status =
  QCheck.Gen.oneofl [ State.Certain_pos; State.Certain_neg; State.Informative ]

(* Strings exercise the escaper: quotes, backslashes, control chars,
   non-ASCII bytes. *)
let gen_string =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'Z'; '"'; '\\'; '\n'; '\t'; ','; ':';
                               '{'; '}'; '\000'; '\127'; '\xc3'; ' ' ])
      (int_bound 12))

(* Finite floats of varied magnitude plus the infinities and NaN — the
   codec must round-trip them all ([Float.equal nan nan] holds). *)
let gen_float =
  QCheck.Gen.(
    oneof
      [
        (let* m = int_range (-1000000) 1000000 in
         return (float_of_int m /. 7.));
        (let* e = int_range (-300) 300 in
         return (1.7 *. (10. ** float_of_int e)));
        oneofl [ 0.; -0.; Float.infinity; Float.neg_infinity; Float.nan ];
      ])

let gen_source =
  QCheck.Gen.(
    oneof
      [
        (let* name = oneofl [ "flights"; "setcards"; "nonesuch" ] in
         return (Pr.Builtin name));
        (let* n_attrs = int_range 1 9 in
         let* n_tuples = int_range 1 500 in
         let* domain = int_range 2 20 in
         let* goal_rank = int_range 0 5 in
         let* seed = int_range 0 10000 in
         return (Pr.Synthetic { n_attrs; n_tuples; domain; goal_rank; seed }));
        (let* text = gen_string in
         return (Pr.Csv_inline text));
        (let* fp = string_size ~gen:(oneofl [ '0'; '7'; 'a'; 'f' ]) (return 8) in
         return (Pr.Catalog fp));
      ])

let gen_request =
  QCheck.Gen.(
    let id = int_range 0 1000 in
    oneof
      [
        (let* source = gen_source in
         let* strategy =
           oneofl [ "random"; "lookahead-entropy"; "optimal"; "bogus" ]
         in
         let* seed = int_range 0 10000 in
         return (Pr.Start_session { source; strategy; seed }));
        (let* session = id in
         return (Pr.Get_question { session }));
        (let* session = id in
         let* k = int_range 0 20 in
         return (Pr.Top_questions { session; k }));
        (let* session = id in
         let* cls = int_range 0 50 in
         let* label = gen_label in
         return (Pr.Answer { session; cls; label }));
        (let* session = id in
         return (Pr.Undo { session }));
        (let* session = id in
         let* cls = int_range 0 50 in
         return (Pr.Explain { session; cls }));
        (let* session = id in
         return (Pr.Result { session }));
        (let* session = id in
         return (Pr.Stats { session }));
        (let* session = id in
         return (Pr.Get_transcript { session }));
        (let* session = id in
         return (Pr.End_session { session }));
        (let* source = gen_source in
         return (Pr.Register_instance { source }));
        return Pr.Catalog_stats;
        (let* session = id in
         let* source = gen_source in
         let* strategy = oneofl [ "random"; "lookahead-entropy" ] in
         let* seed = int_range 0 10000 in
         return (Pr.Start_pinned { session; source; strategy; seed }));
        (let* gen = int_range 0 50 in
         let* snapshot = option gen_string in
         return (Pr.Repl_install { gen; snapshot }));
        (let* gen = int_range 0 50 in
         return (Pr.Repl_rotate { gen }));
        (* records are raw JREC bytes on the real stream — gen_string
           exercises the escaper with quotes, control bytes and '\000' *)
        (let* records = list_size (int_bound 5) gen_string in
         return (Pr.Repl_batch { records }));
        return Pr.Repl_status;
        return Pr.Promote;
        return Pr.Ring_status;
        (let* session = id in
         return (Pr.Labeler_attach { session }));
        (let* session = id in
         let* labeler = int_range 1 50 in
         return (Pr.Labeler_poll { session; labeler }));
        (let* session = id in
         let* labeler = int_range 1 50 in
         let* round = int_range 1 100 in
         let* label = gen_label in
         return (Pr.Vote { session; labeler; round; label }));
        (let* session = id in
         return (Pr.Crowd_stats { session }));
      ])

let gen_question =
  QCheck.Gen.(
    let* cls = int_range 0 50 in
    let* row = int_range 0 500 in
    let* sg = gen_partition in
    return { Pr.cls; row; sg })

let gen_error =
  QCheck.Gen.(
    oneof
      [
        (let* m = gen_string in
         return (Pr.Bad_request m));
        (let* s = int_range 0 1000 in
         return (Pr.Unknown_session s));
        (let* m = gen_string in
         return (Pr.Unknown_strategy m));
        (let* m = gen_string in
         return (Pr.Bad_source m));
        oneofl
          [ Pr.Engine Session.Contradiction; Pr.Engine Session.Nothing_to_undo ];
        (let* active = int_range 0 100 in
         let* extra = int_bound 10 in
         return (Pr.Server_busy { active; max = active + extra }));
        (let* v = int_range 0 20 in
         return (Pr.Unsupported_version v));
        (let* fp = gen_string in
         return (Pr.Unknown_instance fp));
        (let* m = gen_string in
         return (Pr.Shard_unavailable m));
        (let* l = int_range 0 100 in
         return (Pr.Unknown_labeler l));
      ])

let gen_metrics =
  QCheck.Gen.(
    let nat = int_bound 100000 in
    let* meets = nat in
    let* classify_calls = nat in
    let* cache_hits = nat in
    let* cache_misses = nat in
    let* picks = nat in
    let* pick_time_ns = nat in
    let* last_pick_ns = nat in
    return
      {
        Metrics.meets;
        classify_calls;
        cache_hits;
        cache_misses;
        picks;
        pick_time_ns;
        last_pick_ns;
      })

let gen_event =
  QCheck.Gen.(
    let* step = int_range 1 50 in
    let* cls = int_range 0 50 in
    let* row = int_range 0 500 in
    let* sg = gen_partition in
    let* label = gen_label in
    let* decided_after = int_bound 50 in
    let* tuples_decided_after = int_bound 500 in
    let* vs_after = gen_float in
    return
      {
        Session.step;
        cls;
        row;
        sg;
        label;
        decided_after;
        tuples_decided_after;
        vs_after;
      })

let gen_outcome =
  QCheck.Gen.(
    let* query = gen_partition in
    let* events = list_size (int_bound 6) gen_event in
    let* interactions = int_bound 50 in
    let* contradiction = bool in
    return { Session.query; events; interactions; contradiction })

let gen_stats =
  QCheck.Gen.(
    let* labeled = int_bound 100 in
    let* auto_determined = int_bound 500 in
    let* still_informative = int_bound 500 in
    let* total = int_bound 1000 in
    let* version_space = gen_float in
    let* scoring = gen_metrics in
    return
      {
        Pr.labeled;
        auto_determined;
        still_informative;
        total;
        version_space;
        scoring;
      })

let gen_catalog_stats =
  QCheck.Gen.(
    let nat = int_bound 100000 in
    let* entries = nat in
    let* bytes = nat in
    let* pinned = nat in
    let* hits = nat in
    let* misses = nat in
    let* evictions = nat in
    let* fingerprints = nat in
    let* derivations = nat in
    return
      {
        Pr.entries;
        bytes;
        pinned;
        hits;
        misses;
        evictions;
        fingerprints;
        derivations;
      })

let gen_crowd_stats =
  QCheck.Gen.(
    let nat = int_bound 100000 in
    let* labelers = nat in
    let* votes = int_range 1 9 in
    let* weighted = bool in
    let* rounds = nat in
    let* paid_labels = nat in
    let* majority_flips = nat in
    let* timeouts = nat in
    let* re_asks = nat in
    return
      {
        Pr.labelers;
        votes;
        weighted;
        rounds;
        paid_labels;
        majority_flips;
        timeouts;
        re_asks;
      })

let gen_response =
  QCheck.Gen.(
    oneof
      [
        (let* session = int_range 0 1000 in
         let* arity = int_range 1 10 in
         let* classes = int_range 1 100 in
         let* tuples = int_range 1 1000 in
         let* strategy = oneofl [ "random"; "lookahead-entropy"; "optimal" ] in
         return (Pr.Started { session; arity; classes; tuples; strategy }));
        (let* q = option gen_question in
         return (Pr.Question q));
        (let* qs = list_size (int_bound 5) gen_question in
         return (Pr.Questions qs));
        (let* finished = bool in
         let* asked = int_bound 100 in
         let* decided_classes = int_bound 100 in
         let* decided_tuples = int_bound 1000 in
         return (Pr.Answered { finished; asked; decided_classes; decided_tuples }));
        (let* asked = int_bound 100 in
         return (Pr.Undone { asked }));
        (let* cls = int_bound 50 in
         let* status = gen_status in
         let* text = gen_string in
         return (Pr.Explanation { cls; status; text }));
        (let* o = gen_outcome in
         return (Pr.Outcome o));
        (let* s = gen_stats in
         return (Pr.Session_stats s));
        (let* text = gen_string in
         return (Pr.Transcript_text { text }));
        return Pr.Ended;
        (let* e = gen_error in
         return (Pr.Failed e));
        (let* fingerprint =
           string_size ~gen:(oneofl [ '0'; '7'; 'a'; 'f' ]) (return 8)
         in
         let* arity = int_range 1 10 in
         let* classes = int_range 1 100 in
         let* tuples = int_range 1 1000 in
         return (Pr.Registered { fingerprint; arity; classes; tuples }));
        (let* s = gen_catalog_stats in
         return (Pr.Catalog_info s));
        (let* gen = int_range 0 50 in
         let* records = int_bound 10000 in
         return (Pr.Repl_ok { gen; records }));
        (let* records = int_bound 10000 in
         let* bytes = int_bound 1000000 in
         return (Pr.Repl_lag { records; bytes }));
        (let* sessions = int_bound 100 in
         let* generation = int_range 0 50 in
         return (Pr.Promoted { sessions; generation }));
        (let* shards =
           list_size (int_bound 4)
             (let* shard = oneofl [ "s0"; "s1"; "shard-two" ] in
              let* promoted = bool in
              let* lag =
                option
                  (let* records = int_bound 1000 in
                   let* bytes = int_bound 100000 in
                   return (records, bytes))
              in
              return { Pr.shard; promoted; lag })
         in
         let* sessions = int_bound 1000 in
         return (Pr.Ring_info { shards; sessions }));
        (let* labeler = int_range 1 50 in
         let* votes = int_range 1 9 in
         return (Pr.Labeler_attached { labeler; votes }));
        (let* round = int_range 1 100 in
         let* question = option gen_question in
         return (Pr.Crowd_question { round; question }));
        (let* round = int_range 1 100 in
         let* counted = bool in
         let* outcome = option gen_label in
         return (Pr.Vote_ok { round; counted; outcome }));
        (let* s = gen_crowd_stats in
         return (Pr.Crowd_info s));
      ])

(* ------------------------------------------------------------------ *)
(* Equality (Partition via [P.equal], floats via [Float.equal] so NaN
   compares equal to itself)                                           *)

let source_eq a b =
  match (a, b) with
  | Pr.Builtin x, Pr.Builtin y -> x = y
  | ( Pr.Synthetic { n_attrs; n_tuples; domain; goal_rank; seed },
      Pr.Synthetic
        {
          n_attrs = n_attrs';
          n_tuples = n_tuples';
          domain = domain';
          goal_rank = goal_rank';
          seed = seed';
        } ) ->
    n_attrs = n_attrs' && n_tuples = n_tuples' && domain = domain'
    && goal_rank = goal_rank' && seed = seed'
  | Pr.Csv_inline x, Pr.Csv_inline y -> x = y
  | Pr.Catalog x, Pr.Catalog y -> x = y
  | _ -> false

let question_eq (a : Pr.question) (b : Pr.question) =
  a.cls = b.cls && a.row = b.row && P.equal a.sg b.sg

let request_eq a b =
  match (a, b) with
  | ( Pr.Start_session { source = s1; strategy = st1; seed = sd1 },
      Pr.Start_session { source = s2; strategy = st2; seed = sd2 } ) ->
    source_eq s1 s2 && st1 = st2 && sd1 = sd2
  | ( Pr.Answer { session = s1; cls = c1; label = l1 },
      Pr.Answer { session = s2; cls = c2; label = l2 } ) ->
    s1 = s2 && c1 = c2 && l1 = l2
  | ( Pr.Top_questions { session = s1; k = k1 },
      Pr.Top_questions { session = s2; k = k2 } ) ->
    s1 = s2 && k1 = k2
  | ( Pr.Explain { session = s1; cls = c1 },
      Pr.Explain { session = s2; cls = c2 } ) ->
    s1 = s2 && c1 = c2
  | Pr.Get_question { session = s1 }, Pr.Get_question { session = s2 }
  | Pr.Undo { session = s1 }, Pr.Undo { session = s2 }
  | Pr.Result { session = s1 }, Pr.Result { session = s2 }
  | Pr.Stats { session = s1 }, Pr.Stats { session = s2 }
  | Pr.Get_transcript { session = s1 }, Pr.Get_transcript { session = s2 }
  | Pr.End_session { session = s1 }, Pr.End_session { session = s2 } ->
    s1 = s2
  | ( Pr.Register_instance { source = s1 },
      Pr.Register_instance { source = s2 } ) ->
    source_eq s1 s2
  | Pr.Catalog_stats, Pr.Catalog_stats -> true
  | ( Pr.Start_pinned { session = i1; source = s1; strategy = st1; seed = sd1 },
      Pr.Start_pinned { session = i2; source = s2; strategy = st2; seed = sd2 }
    ) ->
    i1 = i2 && source_eq s1 s2 && st1 = st2 && sd1 = sd2
  | ( Pr.Repl_install { gen = g1; snapshot = sn1 },
      Pr.Repl_install { gen = g2; snapshot = sn2 } ) ->
    g1 = g2 && sn1 = sn2
  | Pr.Repl_rotate { gen = g1 }, Pr.Repl_rotate { gen = g2 } -> g1 = g2
  | Pr.Repl_batch { records = r1 }, Pr.Repl_batch { records = r2 } -> r1 = r2
  | Pr.Repl_status, Pr.Repl_status -> true
  | Pr.Promote, Pr.Promote -> true
  | Pr.Ring_status, Pr.Ring_status -> true
  | Pr.Labeler_attach { session = s1 }, Pr.Labeler_attach { session = s2 }
  | Pr.Crowd_stats { session = s1 }, Pr.Crowd_stats { session = s2 } ->
    s1 = s2
  | ( Pr.Labeler_poll { session = s1; labeler = l1 },
      Pr.Labeler_poll { session = s2; labeler = l2 } ) ->
    s1 = s2 && l1 = l2
  | ( Pr.Vote { session = s1; labeler = l1; round = r1; label = lb1 },
      Pr.Vote { session = s2; labeler = l2; round = r2; label = lb2 } ) ->
    s1 = s2 && l1 = l2 && r1 = r2 && lb1 = lb2
  | _ -> false

let event_eq (a : Session.event) (b : Session.event) =
  a.step = b.step && a.cls = b.cls && a.row = b.row && P.equal a.sg b.sg
  && a.label = b.label
  && a.decided_after = b.decided_after
  && a.tuples_decided_after = b.tuples_decided_after
  && Float.equal a.vs_after b.vs_after

let outcome_eq (a : Session.outcome) (b : Session.outcome) =
  P.equal a.query b.query
  && a.interactions = b.interactions
  && a.contradiction = b.contradiction
  && List.length a.events = List.length b.events
  && List.for_all2 event_eq a.events b.events

let stats_eq (a : Pr.session_stats) (b : Pr.session_stats) =
  a.labeled = b.labeled
  && a.auto_determined = b.auto_determined
  && a.still_informative = b.still_informative
  && a.total = b.total
  && Float.equal a.version_space b.version_space
  && a.scoring = b.scoring

let response_eq a b =
  match (a, b) with
  | ( Pr.Started { session = s1; arity = a1; classes = c1; tuples = t1; strategy = st1 },
      Pr.Started { session = s2; arity = a2; classes = c2; tuples = t2; strategy = st2 } ) ->
    s1 = s2 && a1 = a2 && c1 = c2 && t1 = t2 && st1 = st2
  | Pr.Question None, Pr.Question None -> true
  | Pr.Question (Some x), Pr.Question (Some y) -> question_eq x y
  | Pr.Questions xs, Pr.Questions ys ->
    List.length xs = List.length ys && List.for_all2 question_eq xs ys
  | ( Pr.Answered { finished = f1; asked = a1; decided_classes = c1; decided_tuples = t1 },
      Pr.Answered { finished = f2; asked = a2; decided_classes = c2; decided_tuples = t2 } ) ->
    f1 = f2 && a1 = a2 && c1 = c2 && t1 = t2
  | Pr.Undone { asked = a1 }, Pr.Undone { asked = a2 } -> a1 = a2
  | ( Pr.Explanation { cls = c1; status = s1; text = t1 },
      Pr.Explanation { cls = c2; status = s2; text = t2 } ) ->
    c1 = c2 && s1 = s2 && t1 = t2
  | Pr.Outcome x, Pr.Outcome y -> outcome_eq x y
  | Pr.Session_stats x, Pr.Session_stats y -> stats_eq x y
  | Pr.Transcript_text { text = t1 }, Pr.Transcript_text { text = t2 } ->
    t1 = t2
  | Pr.Ended, Pr.Ended -> true
  | Pr.Failed x, Pr.Failed y -> x = y
  | ( Pr.Registered { fingerprint = f1; arity = a1; classes = c1; tuples = t1 },
      Pr.Registered { fingerprint = f2; arity = a2; classes = c2; tuples = t2 }
    ) ->
    f1 = f2 && a1 = a2 && c1 = c2 && t1 = t2
  | Pr.Catalog_info x, Pr.Catalog_info y -> x = y
  | ( Pr.Repl_ok { gen = g1; records = r1 },
      Pr.Repl_ok { gen = g2; records = r2 } ) ->
    g1 = g2 && r1 = r2
  | ( Pr.Repl_lag { records = r1; bytes = b1 },
      Pr.Repl_lag { records = r2; bytes = b2 } ) ->
    r1 = r2 && b1 = b2
  | ( Pr.Promoted { sessions = s1; generation = g1 },
      Pr.Promoted { sessions = s2; generation = g2 } ) ->
    s1 = s2 && g1 = g2
  | ( Pr.Ring_info { shards = sh1; sessions = s1 },
      Pr.Ring_info { shards = sh2; sessions = s2 } ) ->
    sh1 = sh2 && s1 = s2
  | ( Pr.Labeler_attached { labeler = l1; votes = v1 },
      Pr.Labeler_attached { labeler = l2; votes = v2 } ) ->
    l1 = l2 && v1 = v2
  | ( Pr.Crowd_question { round = r1; question = q1 },
      Pr.Crowd_question { round = r2; question = q2 } ) ->
    r1 = r2
    && (match (q1, q2) with
       | None, None -> true
       | Some x, Some y -> question_eq x y
       | _ -> false)
  | ( Pr.Vote_ok { round = r1; counted = c1; outcome = o1 },
      Pr.Vote_ok { round = r2; counted = c2; outcome = o2 } ) ->
    r1 = r2 && c1 = c2 && o1 = o2
  | Pr.Crowd_info x, Pr.Crowd_info y -> x = y
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Round-trip properties                                               *)

let prop_request_roundtrip =
  qtest "request: decode ∘ encode = id"
    (QCheck.make ~print:Pr.request_to_string gen_request) (fun req ->
      match Pr.request_of_string (Pr.request_to_string req) with
      | Ok req' -> request_eq req req'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" (Pr.error_to_string e))

let prop_response_roundtrip =
  qtest "response: decode ∘ encode = id"
    (QCheck.make ~print:Pr.response_to_string gen_response) (fun resp ->
      match Pr.response_of_string (Pr.response_to_string resp) with
      | Ok resp' -> response_eq resp resp'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" (Pr.error_to_string e))

let prop_encoding_stable =
  (* re-encoding a decoded message is byte-identical: the encoding is
     canonical, so servers can compare and log lines directly *)
  qtest "response: encode ∘ decode ∘ encode = encode"
    (QCheck.make ~print:Pr.response_to_string gen_response) (fun resp ->
      let s = Pr.response_to_string resp in
      match Pr.response_of_string s with
      | Ok resp' -> Pr.response_to_string resp' = s
      | Error _ -> false)

let prop_source_roundtrip =
  (* exhaustive over all four instance_source constructors, Catalog
     included — the sub-encoding Start_session, Register_instance and
     the journal's Started events all ride on *)
  qtest "instance_source sub-encoding round-trips"
    (QCheck.make
       ~print:(fun s -> Codec.to_string Pr.source s)
       gen_source)
    (fun s ->
      match Codec.of_json Pr.source (Codec.to_json Pr.source s) with
      | Ok s' -> source_eq s s'
      | Error _ -> false)

let prop_partition_roundtrip =
  qtest "partition sub-encoding round-trips"
    (QCheck.make ~print:P.to_string gen_partition) (fun p ->
      match Codec.of_json Pr.partition (Codec.to_json Pr.partition p) with
      | Ok p' -> P.equal p p'
      | Error _ -> false)

let prop_outcome_roundtrip =
  qtest ~count:100 "outcome sub-encoding round-trips"
    (QCheck.make
       ~print:(fun o -> Codec.to_string Pr.outcome o)
       gen_outcome)
    (fun o ->
      match Codec.of_json Pr.outcome (Pr.outcome_to_json o) with
      | Ok o' -> outcome_eq o o'
      | Error _ -> false)

let prop_json_float_roundtrip =
  qtest "json: floats round-trip bit-for-bit"
    (QCheck.make ~print:string_of_float gen_float) (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok v -> ( match Json.as_float v with Ok f' -> Float.equal f f' | Error _ -> false)
      | Error _ -> false)

let prop_json_string_roundtrip =
  qtest "json: strings round-trip through escaping"
    (QCheck.make ~print:String.escaped gen_string) (fun s ->
      match Json.of_string (Json.to_string (Json.String s)) with
      | Ok (Json.String s') -> s = s'
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Version and malformed input                                         *)

let test_version_mismatch () =
  (match Pr.request_of_string {|{"jim":2,"req":"undo","session":1}|} with
  | Error (Pr.Unsupported_version 2) -> ()
  | _ -> Alcotest.fail "expected Unsupported_version 2");
  match Pr.response_of_string {|{"jim":99,"resp":"ended"}|} with
  | Error (Pr.Unsupported_version 99) -> ()
  | _ -> Alcotest.fail "expected Unsupported_version 99"

let test_malformed () =
  let bad = function
    | Error (Pr.Bad_request _) -> ()
    | Error e -> Alcotest.fail ("wrong error: " ^ Pr.error_to_string e)
    | Ok _ -> Alcotest.fail "malformed input decoded"
  in
  bad (Pr.request_of_string "not json at all");
  bad (Pr.request_of_string {|{"jim":1}|});
  bad (Pr.request_of_string {|{"jim":1,"req":"teleport"}|});
  bad (Pr.request_of_string {|{"jim":1,"req":"answer","session":1}|});
  bad (Pr.request_of_string {|[1,2,3]|});
  (* crowd messages: missing fields and bad labels are refused whole *)
  bad (Pr.request_of_string {|{"jim":1,"req":"vote","session":1}|});
  bad
    (Pr.request_of_string
       {|{"jim":1,"req":"vote","session":1,"labeler":2,"round":3,"label":"?"}|});
  bad (Pr.request_of_string {|{"jim":1,"req":"labeler_poll","session":1}|});
  (* the outcome field is mandatory — null for "round still open" *)
  bad
    (Pr.response_of_string
       {|{"jim":1,"resp":"vote_ok","round":1,"counted":true}|});
  (match
     Pr.response_of_string
       {|{"jim":1,"resp":"vote_ok","round":4,"counted":false,"outcome":null}|}
   with
  | Ok (Pr.Vote_ok { round = 4; counted = false; outcome = None }) -> ()
  | _ -> Alcotest.fail "null outcome should decode to None")

let test_repl_batch_errors () =
  (* The batch messages fail with the same pinned Bad_request strings
     the rest of the protocol uses — a malformed batch must never be
     partially applied, just refused with a greppable reason. *)
  let pin line expected =
    match Pr.request_of_string line with
    | Error e ->
      Alcotest.(check string) expected expected (Pr.error_to_string e)
    | Ok _ -> Alcotest.fail ("accepted: " ^ line)
  in
  pin {|{"jim":1,"req":"repl_batch"}|} {|bad request: missing field "records"|};
  pin
    {|{"jim":1,"req":"repl_batch","records":7}|}
    "bad request: expected an array, got 7";
  pin
    {|{"jim":1,"req":"repl_batch","records":["a",7]}|}
    "bad request: expected a string, got 7";
  (* Ring_info lag fields are additive but must travel as a pair. *)
  (match
     Pr.response_of_string
       {|{"jim":1,"resp":"ring_status","shards":[{"name":"s0","promoted":false,"lag_records":3}],"sessions":0}|}
   with
  | Error (Pr.Bad_request _ as e) ->
    Alcotest.(check string)
      "half a lag pair refused"
      "bad request: lag_records and lag_bytes must appear together"
      (Pr.error_to_string e)
  | _ -> Alcotest.fail "half a lag pair accepted");
  (* an empty batch is well-formed on the wire; senders never emit it *)
  match Pr.request_of_string {|{"jim":1,"req":"repl_batch","records":[]}|} with
  | Ok (Pr.Repl_batch { records = [] }) -> ()
  | _ -> Alcotest.fail "empty repl_batch should decode"

let test_label_encoding () =
  (* the wire uses the paper's +/- vocabulary; pin it *)
  Alcotest.(check string) "+" "\"+\"" (Codec.to_string Pr.label State.Pos);
  Alcotest.(check string) "-" "\"-\"" (Codec.to_string Pr.label State.Neg)

let test_json_trailing_garbage () =
  match Json.of_string "{} {}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

let test_unicode_escapes () =
  (* \u escapes take exactly four hex digits from [0-9a-fA-F].
     [int_of_string "0x..."] would also accept underscores and sign
     characters ("0_41", "+041"), so the digits are decoded by hand —
     pin both the accepts and the rejects. *)
  (match Json.of_string {|"\u0041"|} with
  | Ok (Json.String "A") -> ()
  | Ok v -> Alcotest.fail ("\\u0041 decoded to " ^ Json.to_string v)
  | Error e -> Alcotest.fail ("\\u0041 rejected: " ^ e));
  (match Json.of_string {|"\uD83D\uDE00"|} with
  | Ok (Json.String s) ->
    Alcotest.(check string) "surrogate pair decodes to UTF-8"
      "\xf0\x9f\x98\x80" s
  | Error e -> Alcotest.fail ("surrogate pair rejected: " ^ e)
  | Ok v -> Alcotest.fail ("surrogate pair decoded to " ^ Json.to_string v));
  let reject s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok v ->
      Alcotest.fail (Printf.sprintf "%s accepted as %s" s (Json.to_string v))
  in
  reject {|"\u0_41"|};
  reject {|"\u+041"|};
  reject {|"\u-041"|};
  reject {|"\u00G1"|};
  reject {|"\u 041"|};
  reject {|"\u004"|}

let test_error_strings () =
  (* error_to_string is documented stable, one shape per constructor —
     clients grep logs for these.  Pin every one. *)
  List.iter
    (fun (err, expected) ->
      Alcotest.(check string) expected expected (Pr.error_to_string err))
    [
      (Pr.Bad_request "no tag", "bad request: no tag");
      (Pr.Unknown_session 42, "unknown session 42");
      (Pr.Unknown_strategy "no such strategy", "no such strategy");
      (Pr.Bad_source "bad csv", "bad instance source: bad csv");
      (Pr.Unknown_instance "deadbeef", "unknown instance deadbeef");
      ( Pr.Engine Session.Contradiction,
        Session.error_to_string Session.Contradiction );
      ( Pr.Server_busy { active = 64; max = 64 },
        "server busy: 64/64 sessions active" );
      ( Pr.Unsupported_version 9,
        Printf.sprintf "unsupported protocol version 9 (this server speaks %d)"
          Pr.version );
      ( Pr.Shard_unavailable "s0 down",
        "shard unavailable: s0 down" );
      (Pr.Unknown_labeler 7, "unknown labeler 7");
    ]

(* ------------------------------------------------------------------ *)
(* Strategy name table                                                 *)

let test_strategy_roundtrip () =
  List.iter
    (fun name ->
      match Strategy.of_string name with
      | Ok s ->
        Alcotest.(check string)
          (name ^ " round-trips") name (Strategy.to_string s)
      | Error e -> Alcotest.fail e)
    Strategy.names;
  (match Strategy.of_string "lookahead2" with
  | Ok s ->
    Alcotest.(check string) "alias normalises" "lookahead-2" (Strategy.to_string s)
  | Error e -> Alcotest.fail e);
  match Strategy.of_string "nonesuch" with
  | Error msg ->
    Alcotest.(check bool) "error lists the catalogue" true
      (String.length msg > 0
      && String.exists (fun _ -> true) msg
      &&
      let has_sub s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      has_sub msg "optimal")
  | Ok _ -> Alcotest.fail "unknown strategy accepted"

let () =
  Alcotest.run "api"
    [
      ( "roundtrip",
        [
          prop_request_roundtrip;
          prop_response_roundtrip;
          prop_encoding_stable;
          prop_source_roundtrip;
          prop_partition_roundtrip;
          prop_outcome_roundtrip;
          prop_json_float_roundtrip;
          prop_json_string_roundtrip;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
          Alcotest.test_case "malformed input" `Quick test_malformed;
          Alcotest.test_case "repl batch errors" `Quick test_repl_batch_errors;
          Alcotest.test_case "label encoding" `Quick test_label_encoding;
          Alcotest.test_case "trailing garbage" `Quick test_json_trailing_garbage;
          Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
          Alcotest.test_case "stable error strings" `Quick test_error_strings;
        ] );
      ( "strategy names",
        [ Alcotest.test_case "of_string/to_string" `Quick test_strategy_roundtrip ] );
    ]
