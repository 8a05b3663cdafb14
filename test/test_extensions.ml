(* Tests for the extension modules: Explain (status certificates), Crowd
   (majority-vote labelling), Teaching (omniscient teaching sets),
   Lookahead2 (depth-2 strategy) and Fd (constraint discovery). *)

module P = Jim_partition.Partition
module Penum = Jim_partition.Penum
module V = Jim_relational.Value
module R = Jim_relational.Relation
module Schema = Jim_relational.Schema
module Fd = Jim_relational.Fd
module W = Jim_workloads
open Jim_core

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let gen_partition_sized n =
  QCheck.Gen.(
    let* rgs =
      let rec build i maxv acc =
        if i >= n then return (List.rev acc)
        else
          let* v = int_bound (min (maxv + 1) (n - 1)) in
          build (i + 1) (max maxv v) (v :: acc)
      in
      build 0 (-1) []
    in
    return (P.of_rgs (Array.of_list rgs)))

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)

let test_explain_flights () =
  let eng = Session.create W.Flights.instance in
  let class_of k =
    Option.get (Sigclass.find (Session.classes eng) (W.Flights.signature k))
  in
  (match Session.answer eng (class_of 12) State.Pos with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unexpected");
  (* (3) became certain positive: the witness must be the (12) label. *)
  (match Session.explain_row eng (W.Flights.row 3) with
  | Explain.Forced_positive [ w ] ->
    Alcotest.(check bool) "witness is sig(12)" true
      (P.equal w (W.Flights.signature 12))
  | _ -> Alcotest.fail "expected a one-positive witness");
  (* (8) is still open: the certificate carries two disagreeing
     predicates. *)
  match Session.explain_row eng (W.Flights.row 8) with
  | Explain.Open_question (sel, rej) ->
    Alcotest.(check bool) "selector selects" true
      (P.refines sel (W.Flights.signature 8));
    Alcotest.(check bool) "rejector rejects" false
      (P.refines rej (W.Flights.signature 8))
  | _ -> Alcotest.fail "expected an open question"

let test_explain_negative_certificate () =
  let eng = Session.create W.Flights.instance in
  let class_of k =
    Option.get (Sigclass.find (Session.classes eng) (W.Flights.signature k))
  in
  (match Session.answer eng (class_of 12) State.Neg with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unexpected");
  (* (1) becomes certain negative; the blame is the (12) negative. *)
  match Session.explain_row eng (W.Flights.row 1) with
  | Explain.Forced_negative u ->
    Alcotest.(check bool) "covering negative is sig(12)" true
      (P.equal u (W.Flights.signature 12))
  | _ -> Alcotest.fail "expected forced negative"

let prop_explain_certificates_check =
  (* Whatever the labels, every class's certificate verifies. *)
  let arb =
    QCheck.make
      ~print:(fun (g, sigs) ->
        P.to_string g ^ " / " ^ String.concat " " (List.map P.to_string sigs))
      QCheck.Gen.(
        let* goal = gen_partition_sized 5 in
        let* sigs = list_size (int_range 1 8) (gen_partition_sized 5) in
        return (goal, sigs))
  in
  qtest "explanations always check out" arb (fun (goal, sigs) ->
      let positives =
        List.filter (fun sg -> P.refines goal sg) sigs
      in
      let st =
        List.fold_left
          (fun st sg ->
            let lbl = if P.refines goal sg then State.Pos else State.Neg in
            State.add_exn st lbl sg)
          (State.create 5) sigs
      in
      let ok = ref true in
      Penum.iter_all 5 (fun sg ->
          let why = Explain.explain st ~positives sg in
          if not (Explain.check st sg why) then ok := false;
          (* The certificate kind must match the classification. *)
          let matches =
            match (why, State.classify st sg) with
            | Explain.Forced_positive _, State.Certain_pos
            | Explain.Forced_negative _, State.Certain_neg
            | Explain.Open_question _, State.Informative -> true
            | _ -> false
          in
          if not matches then ok := false);
      !ok)

let test_explain_rejects_wrong_positives () =
  let st = State.add_exn (State.create 5) State.Pos (W.Flights.signature 3) in
  Alcotest.(check bool) "mismatched positives rejected" true
    (try
       ignore (Explain.explain st ~positives:[] (W.Flights.signature 4));
       false
     with Invalid_argument _ -> true)

let test_explain_to_string () =
  let st = State.add_exn (State.create 5) State.Pos (W.Flights.signature 3) in
  let why =
    Explain.explain st
      ~positives:[ W.Flights.signature 3 ]
      (W.Flights.signature 4)
  in
  let s = Explain.to_string W.Flights.schema why in
  Alcotest.(check bool) "mentions forcing" true
    (String.length s > 0
    && String.sub s 0 6 = "forced")

(* ------------------------------------------------------------------ *)
(* Crowd                                                               *)

let test_crowd_validation () =
  let worker = Oracle.of_goal W.Flights.q2 in
  Alcotest.(check bool) "even votes rejected" true
    (try
       ignore
         (Crowd.run ~votes:2 ~strategy:Strategy.local_lex ~worker
            W.Flights.instance);
       false
     with Invalid_argument _ -> true)

let test_crowd_perfect_worker () =
  let worker = Oracle.of_goal W.Flights.q2 in
  let o =
    Crowd.run ~votes:3 ~strategy:Strategy.local_lex ~worker W.Flights.instance
  in
  Alcotest.(check bool) "query correct" true
    (P.equal o.Crowd.session.Session.query W.Flights.q2);
  Alcotest.(check int) "cost = 3x questions" (o.Crowd.questions * 3)
    o.Crowd.paid_labels;
  Alcotest.(check int) "no dissent" 0 o.Crowd.majority_flips

let test_crowd_redundancy_helps () =
  (* With 20% worker error, majority-of-5 recovers the goal much more
     often than a single vote. *)
  let goal = W.Flights.q2 in
  let trials = 40 in
  let successes votes =
    let ok = ref 0 in
    for seed = 1 to trials do
      let worker =
        Oracle.noisy ~seed ~flip_probability:0.2 (Oracle.of_goal goal)
      in
      let o =
        Crowd.run ~seed ~votes ~strategy:Strategy.local_lex ~worker
          W.Flights.instance
      in
      let inferred = Jquery.make W.Flights.schema o.Crowd.session.Session.query in
      let wanted = Jquery.make W.Flights.schema goal in
      if
        (not o.Crowd.session.Session.contradiction)
        && Jquery.equivalent_on inferred wanted W.Flights.instance
      then incr ok
    done;
    !ok
  in
  let s1 = successes 1 and s5 = successes 5 in
  Alcotest.(check bool)
    (Printf.sprintf "votes=5 (%d/%d) beats votes=1 (%d/%d)" s5 trials s1 trials)
    true (s5 > s1)

(* ------------------------------------------------------------------ *)
(* Teaching                                                            *)

let test_teaching_flights () =
  let classes, _ = Sigclass.classes W.Flights.instance in
  let lesson = Teaching.greedy ~goal:W.Flights.q2 classes in
  Alcotest.(check bool) "greedy lesson is a teaching set" true
    (Teaching.is_teaching_set ~goal:W.Flights.q2 classes
       (List.map fst lesson));
  (* The paper teaches Q2 with 3 labels; greedy should match that. *)
  Alcotest.(check bool)
    (Printf.sprintf "greedy size %d <= 3" (List.length lesson))
    true
    (List.length lesson <= 3);
  match Teaching.exact_minimum ~goal:W.Flights.q2 classes with
  | None -> Alcotest.fail "exact minimum not found"
  | Some minimum ->
    Alcotest.(check int) "minimum teaching set for Q2" 3 (List.length minimum);
    Alcotest.(check bool) "greedy matches minimum here" true
      (List.length lesson = List.length minimum)

let prop_teaching_sound =
  qtest ~count:60 "greedy teaching sets always teach"
    (QCheck.make
       ~print:(fun (g, sigs) ->
         P.to_string g ^ " / " ^ string_of_int (List.length sigs))
       QCheck.Gen.(
         let* goal = gen_partition_sized 5 in
         let* sigs = list_size (int_range 1 10) (gen_partition_sized 5) in
         return (goal, sigs)))
    (fun (goal, sigs) ->
      let classes = Sigclass.of_signatures sigs in
      let lesson = Teaching.greedy ~goal classes in
      Teaching.is_teaching_set ~goal classes (List.map fst lesson))

let prop_teaching_lower_bounds_sessions =
  (* The exact minimum teaching set cannot be larger than what any
     interactive strategy used: sessions end with teaching sets too. *)
  qtest ~count:30 "exact minimum <= session interactions"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 200))
    (fun seed ->
      let inst =
        W.Synthetic.generate
          {
            W.Synthetic.n_attrs = 4;
            n_tuples = 15;
            domain = 8;
            goal_rank = 2;
            seed;
          }
      in
      let classes, _ = Sigclass.classes inst.W.Synthetic.relation in
      match Teaching.exact_minimum ~max_size:5 ~goal:inst.W.Synthetic.goal classes with
      | None -> QCheck.assume_fail ()
      | Some minimum ->
        let o =
          Session.run ~strategy:Strategy.local_lex
            ~oracle:(Oracle.of_goal inst.W.Synthetic.goal)
            inst.W.Synthetic.relation
        in
        List.length minimum <= o.Session.interactions)

(* ------------------------------------------------------------------ *)
(* Lookahead2                                                          *)

let test_lookahead2_contract () =
  let strat = Strategy.lookahead2 () in
  let o =
    Session.run ~strategy:strat ~oracle:(Oracle.of_goal W.Flights.q2)
      W.Flights.instance
  in
  Alcotest.(check bool) "converges" false o.Session.contradiction;
  Alcotest.(check bool) "reasonable count" true (o.Session.interactions <= 6);
  Alcotest.(check bool) "query equivalent" true
    (Jquery.equivalent_on
       (Jquery.make W.Flights.schema o.Session.query)
       (Jquery.make W.Flights.schema W.Flights.q2)
       W.Flights.instance)

let test_lookahead2_on_synthetic () =
  (* Depth 2 should never be dramatically worse than depth 1 on
     moderately complex instances (averaged). *)
  let total1 = ref 0 and total2 = ref 0 in
  for seed = 1 to 6 do
    let inst =
      W.Synthetic.generate
        {
          W.Synthetic.n_attrs = 6;
          n_tuples = 50;
          domain = 8;
          goal_rank = 3;
          seed;
        }
    in
    let run strat =
      (Session.run ~strategy:strat
         ~oracle:(Oracle.of_goal inst.W.Synthetic.goal)
         inst.W.Synthetic.relation)
        .Session.interactions
    in
    total1 := !total1 + run Strategy.lookahead_maximin;
    total2 := !total2 + run (Strategy.lookahead2 ())
  done;
  Alcotest.(check bool)
    (Printf.sprintf "depth2 (%d) within 1.5x of depth1 (%d)" !total2 !total1)
    true
    (float_of_int !total2 <= 1.5 *. float_of_int !total1)

(* ------------------------------------------------------------------ *)
(* Undo                                                                *)

let test_undo_roundtrip () =
  let eng = Session.create W.Flights.instance in
  let class_of k =
    Option.get (Sigclass.find (Session.classes eng) (W.Flights.signature k))
  in
  Alcotest.(check bool) "empty undo refused" true
    (Session.undo eng = Error Session.Nothing_to_undo);
  let statuses_before =
    Array.init 12 (fun r -> Session.row_status eng r)
  in
  (match Session.answer eng (class_of 12) State.Pos with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unexpected");
  Alcotest.(check bool) "something changed" true
    (Array.exists
       (fun r -> Session.row_status eng r <> statuses_before.(r))
       (Array.init 12 Fun.id));
  (match Session.undo eng with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "undo refused");
  Alcotest.(check int) "asked rolled back" 0 (Session.asked eng);
  Array.iteri
    (fun r s ->
      Alcotest.(check bool)
        (Printf.sprintf "row %d status restored" r)
        true
        (Session.row_status eng r = s))
    statuses_before;
  Alcotest.(check int) "history empty" 0 (List.length (Session.history eng))

let prop_undo_inverse =
  (* answer ; undo is the identity on the observable engine state, from
     any reachable state. *)
  qtest ~count:50 "undo inverts answer from any reachable state"
    (QCheck.make
       ~print:(fun (g, ks) ->
         P.to_string g ^ " after "
         ^ String.concat "," (List.map string_of_int ks))
       QCheck.Gen.(
         let* goal = gen_partition_sized 5 in
         let* prefix = list_size (int_bound 4) (int_range 1 12) in
         return (goal, prefix)))
    (fun (goal, prefix) ->
      let eng = Session.create W.Flights.instance in
      let oracle = Oracle.of_goal goal in
      let class_of k =
        Option.get
          (Sigclass.find (Session.classes eng) (W.Flights.signature k))
      in
      (* Drive a consistent prefix (skip labels that are already forced
         the other way, which a sound user cannot produce). *)
      List.iter
        (fun k ->
          let sg = W.Flights.signature k in
          ignore (Session.answer eng (class_of k) (Oracle.label oracle sg)))
        prefix;
      let key () =
        (State.key (Session.state eng),
         Session.asked eng,
         List.length (Session.history eng))
      in
      let before = key () in
      (* Answer any informative class, then undo. *)
      match Session.informative eng with
      | [] -> true
      | ci :: _ ->
        let sg = (Session.classes eng).(ci).Sigclass.sg in
        (match Session.answer eng ci (Oracle.label oracle sg) with
        | Ok () -> (
          match Session.undo eng with
          | Ok () -> key () = before
          | Error _ -> false)
        | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* Disjunctive                                                         *)

let test_disjunctive_semantics () =
  (* To = City OR Airline = Discount on the flights instance: rows
     selected by either conjunct. *)
  let u = [ P.of_pairs 5 [ (1, 3) ]; P.of_pairs 5 [ (2, 4) ] ] in
  let selected = Disjunctive.eval u W.Flights.instance in
  let q1_rows = R.satisfying (P.of_pairs 5 [ (1, 3) ]) W.Flights.instance in
  let q_ad_rows = R.satisfying (P.of_pairs 5 [ (2, 4) ]) W.Flights.instance in
  Alcotest.(check int) "union cardinality"
    (R.cardinality (R.union q1_rows q_ad_rows))
    (R.cardinality selected);
  Alcotest.(check bool) "empty union selects nothing" true
    (R.cardinality (Disjunctive.eval [] W.Flights.instance) = 0);
  Alcotest.(check bool) "bottom disjunct selects everything" true
    (R.cardinality (Disjunctive.eval [ P.bottom 5 ] W.Flights.instance) = 12)

let test_disjunctive_normalise () =
  let q1 = P.of_pairs 5 [ (1, 3) ] in
  let u = Disjunctive.normalise [ W.Flights.q2; q1 ] in
  (* Q2 ⊒ Q1 is subsumed: Q1 ⊑ Q2 so Q2's cone is inside Q1's. *)
  Alcotest.(check int) "subsumed disjunct dropped" 1 (List.length u);
  Alcotest.(check bool) "kept the general one" true
    (P.equal (List.hd u) q1)

let test_disjunctive_to_where () =
  let u = [ P.of_pairs 5 [ (1, 3) ]; P.of_pairs 5 [ (2, 4) ] ] in
  Alcotest.(check string) "where"
    "(To = City) OR (Airline = Discount)"
    (Disjunctive.to_where W.Flights.schema u);
  Alcotest.(check string) "false" "FALSE"
    (Disjunctive.to_where W.Flights.schema []);
  Alcotest.(check string) "true absorbs" "TRUE"
    (Disjunctive.to_where W.Flights.schema [ P.bottom 5; W.Flights.q2 ])

let test_disjunctive_inference_flights () =
  let goal = [ P.of_pairs 5 [ (1, 3) ]; P.of_pairs 5 [ (2, 4) ] ] in
  let o =
    Disjunctive.run ~oracle:(Disjunctive.oracle_of_union goal)
      W.Flights.instance
  in
  Alcotest.(check bool) "no contradiction" false o.Disjunctive.contradiction;
  Alcotest.(check bool) "under 12 questions" true
    (o.Disjunctive.interactions < 12);
  (* Instance-equivalence of the learned union. *)
  Array.iter
    (fun sg ->
      Alcotest.(check bool) "agrees on every signature" true
        (Disjunctive.selects o.Disjunctive.union sg
        = Disjunctive.selects goal sg))
    (R.signatures W.Flights.instance)

let prop_disjunctive_converges =
  qtest ~count:60 "disjunctive runs converge to instance-equivalence"
    (QCheck.make
       ~print:(fun (g, sigs) ->
         string_of_int (List.length g) ^ " disjuncts / "
         ^ string_of_int (List.length sigs))
       QCheck.Gen.(
         let* disjuncts = list_size (int_range 1 3) (gen_partition_sized 5) in
         let* sigs = list_size (int_range 1 12) (gen_partition_sized 5) in
         return (disjuncts, sigs)))
    (fun (goal, sigs) ->
      let rel =
        (* Materialise an instance whose signatures are [sigs]: use int
           tuples built from each signature's blocks. *)
        let tuple_of sg =
          Array.init 5 (fun i -> Jim_relational.Value.Int (P.rep sg i))
        in
        R.make ~name:"synth"
          (Schema.of_list
             (List.init 5 (fun i ->
                  (Printf.sprintf "a%d" i, Jim_relational.Value.Tint))))
          (List.map tuple_of sigs)
      in
      let o =
        Disjunctive.run ~oracle:(Disjunctive.oracle_of_union goal) rel
      in
      (not o.Disjunctive.contradiction)
      && List.for_all
           (fun sg ->
             Disjunctive.selects o.Disjunctive.union sg
             = Disjunctive.selects goal sg)
           sigs)

let test_disjunctive_contradiction () =
  let st = Disjunctive.create 5 in
  let st =
    match Disjunctive.add st State.Neg (W.Flights.signature 3) with
    | Ok st -> st
    | Error `Contradiction -> Alcotest.fail "unexpected"
  in
  (* sig(3) negative forces everything below it negative; a positive on a
     refinement of sig(3) contradicts.  sig(4) = sig(3). *)
  Alcotest.(check bool) "contradiction detected" true
    (Disjunctive.add st State.Pos (W.Flights.signature 4)
    = Error `Contradiction)

(* ------------------------------------------------------------------ *)
(* Transcript                                                          *)

let test_transcript_roundtrip () =
  let o =
    Session.run ~strategy:Strategy.lookahead_entropy
      ~oracle:(Oracle.of_goal W.Flights.q2) W.Flights.instance
  in
  let t = Transcript.of_outcome ~n:5 o in
  let text = Transcript.to_string t in
  match Transcript.of_string text with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    Alcotest.(check int) "arity" 5 t'.Transcript.arity;
    Alcotest.(check int) "entries"
      (List.length t.Transcript.entries)
      (List.length t'.Transcript.entries);
    Alcotest.(check string) "stable print" text (Transcript.to_string t')

let test_transcript_replay () =
  let o =
    Session.run ~strategy:Strategy.local_lex
      ~oracle:(Oracle.of_goal W.Flights.q2) W.Flights.instance
  in
  let t = Transcript.of_outcome ~n:5 o in
  let eng = Session.create W.Flights.instance in
  (match Transcript.replay t eng with
  | Ok () -> ()
  | Error `Contradiction -> Alcotest.fail "replay contradicted"
  | Error `Arity_mismatch -> Alcotest.fail "arity mismatch");
  Alcotest.(check bool) "replayed to completion" true (Session.finished eng);
  Alcotest.(check bool) "same query" true
    (P.equal (Session.result eng) o.Session.query)

let test_transcript_engine_history () =
  let eng = Session.create W.Flights.instance in
  let class_of k =
    Option.get (Sigclass.find (Session.classes eng) (W.Flights.signature k))
  in
  List.iter
    (fun (k, l) ->
      match Session.answer eng (class_of k) l with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "unexpected")
    [ (3, State.Pos); (7, State.Neg); (8, State.Neg) ];
  let t = Transcript.of_engine eng in
  Alcotest.(check int) "three entries" 3 (List.length t.Transcript.entries);
  Alcotest.(check bool) "finished engine records result" true
    (match t.Transcript.result with
    | Some r -> P.equal r W.Flights.q2
    | None -> false)

let test_transcript_errors () =
  List.iter
    (fun text ->
      Alcotest.(check bool)
        ("rejects: " ^ String.escaped text)
        true
        (Result.is_error (Transcript.of_string text)))
    [
      "";
      "not-a-transcript";
      "jim-transcript 1\n";
      "jim-transcript 1\narity 0\n";
      "jim-transcript 1\narity 5\nlabel {0}{1}{2}{3}{4} ?\n";
      "jim-transcript 1\narity 5\nlabel {0}{1}{2} +\n";
      "jim-transcript 1\narity 5\nresult {0}{1}{2}{3}{4}\nlabel {0}{1}{2}{3}{4} +\n";
    ]

let test_transcript_replay_arity_mismatch () =
  let t =
    { Transcript.arity = 3; entries = []; result = None }
  in
  let eng = Session.create W.Flights.instance in
  Alcotest.(check bool) "arity mismatch" true
    (Transcript.replay t eng = Error `Arity_mismatch)

let test_partition_of_string () =
  let partition_r =
    Alcotest.testable
      (fun fmt r ->
        match r with
        | Ok p -> P.pp fmt p
        | Error e -> Format.pp_print_string fmt e)
      (fun a b ->
        match (a, b) with
        | Ok p, Ok q -> P.equal p q
        | Error _, Error _ -> true
        | _ -> false)
  in
  Alcotest.check partition_r "roundtrip"
    (Ok (P.of_blocks 5 [ [ 1; 3 ]; [ 2; 4 ] ]))
    (P.of_string "{0}{1,3}{2,4}");
  Alcotest.check partition_r "any block order"
    (Ok (P.of_blocks 3 [ [ 0; 2 ] ]))
    (P.of_string "{1}{0,2}");
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (Result.is_error (P.of_string s)))
    [ "{0}{0}"; "{0}{2}"; "{0,1"; "{}"; "nope"; "{0,x}" ]

(* ------------------------------------------------------------------ *)
(* Fd                                                                  *)

let people =
  R.of_rows ~name:"people"
    (Schema.of_list
       [
         ("id", V.Tint);
         ("email", V.Tstring);
         ("city", V.Tstring);
         ("zip", V.Tint);
       ])
    V.[
        [ Int 1; Str "a@x"; Str "lille"; Int 59000 ];
        [ Int 2; Str "b@x"; Str "lille"; Int 59000 ];
        [ Int 3; Str "c@x"; Str "paris"; Int 75001 ];
        [ Int 4; Str "d@x"; Str "paris"; Int 75001 ];
      ]

let test_unary_fds () =
  let fds = Fd.unary_fds people in
  (* id -> everything; email -> everything; city <-> zip. *)
  Alcotest.(check bool) "id -> city" true (List.mem (0, 2) fds);
  Alcotest.(check bool) "city -> zip" true (List.mem (2, 3) fds);
  Alcotest.(check bool) "zip -> city" true (List.mem (3, 2) fds);
  Alcotest.(check bool) "city -/-> id" false (List.mem (2, 0) fds)

let test_holds_fd_composite () =
  Alcotest.(check bool) "{city,zip} -> city" true
    (Fd.holds_fd people ~lhs:[ 2; 3 ] ~rhs:2);
  Alcotest.(check bool) "{city} -> id fails" false
    (Fd.holds_fd people ~lhs:[ 2 ] ~rhs:0)

let test_minimal_keys () =
  let keys = Fd.minimal_keys people in
  Alcotest.(check bool) "id is a key" true (List.mem [ 0 ] keys);
  Alcotest.(check bool) "email is a key" true (List.mem [ 1 ] keys);
  Alcotest.(check bool) "no superset of id listed" false
    (List.exists (fun k -> List.mem 0 k && List.length k > 1) keys);
  Alcotest.(check bool) "city alone is not a key" false (List.mem [ 2 ] keys)

let test_inclusion_and_suggestions () =
  let db = W.Tpch.generate ~seed:2 W.Tpch.tiny in
  let orders = Jim_relational.Database.find_exn db "orders" in
  let customer = Jim_relational.Database.find_exn db "customer" in
  let o_cust = Schema.find_exn (R.schema orders) "o_custkey" in
  let c_key = Schema.find_exn (R.schema customer) "c_custkey" in
  Alcotest.(check (float 0.0001)) "fk inclusion is total" 1.0
    (Fd.inclusion orders o_cust customer c_key);
  let suggestions = Fd.suggest_join_pairs ~threshold:0.95 customer orders in
  Alcotest.(check bool) "fk pair suggested" true
    (List.exists (fun (a, b, _) -> a = c_key && b = o_cust) suggestions)

let test_inclusion_empty_column () =
  let empty =
    R.of_rows ~name:"e" (Schema.of_list [ ("x", V.Tint) ]) V.[ [ Null ] ]
  in
  Alcotest.(check (float 0.0)) "vacuous inclusion" 1.0
    (Fd.inclusion empty 0 people 0)

let () =
  Alcotest.run "extensions"
    [
      ( "explain",
        [
          Alcotest.test_case "flights certificates" `Quick test_explain_flights;
          Alcotest.test_case "negative certificate" `Quick
            test_explain_negative_certificate;
          prop_explain_certificates_check;
          Alcotest.test_case "rejects mismatched positives" `Quick
            test_explain_rejects_wrong_positives;
          Alcotest.test_case "rendering" `Quick test_explain_to_string;
        ] );
      ( "crowd",
        [
          Alcotest.test_case "validation" `Quick test_crowd_validation;
          Alcotest.test_case "perfect worker" `Quick test_crowd_perfect_worker;
          Alcotest.test_case "redundancy helps noisy workers" `Slow
            test_crowd_redundancy_helps;
        ] );
      ( "teaching",
        [
          Alcotest.test_case "flights lesson" `Quick test_teaching_flights;
          prop_teaching_sound;
          prop_teaching_lower_bounds_sessions;
        ] );
      ( "lookahead2",
        [
          Alcotest.test_case "contract" `Quick test_lookahead2_contract;
          Alcotest.test_case "vs depth 1" `Slow test_lookahead2_on_synthetic;
        ] );
      ( "undo",
        [
          Alcotest.test_case "roundtrip" `Quick test_undo_roundtrip;
          prop_undo_inverse;
        ] );
      ( "disjunctive",
        [
          Alcotest.test_case "semantics" `Quick test_disjunctive_semantics;
          Alcotest.test_case "normalise" `Quick test_disjunctive_normalise;
          Alcotest.test_case "to_where" `Quick test_disjunctive_to_where;
          Alcotest.test_case "inference on flights" `Quick
            test_disjunctive_inference_flights;
          prop_disjunctive_converges;
          Alcotest.test_case "contradiction" `Quick
            test_disjunctive_contradiction;
        ] );
      ( "transcript",
        [
          Alcotest.test_case "roundtrip" `Quick test_transcript_roundtrip;
          Alcotest.test_case "replay" `Quick test_transcript_replay;
          Alcotest.test_case "engine history" `Quick
            test_transcript_engine_history;
          Alcotest.test_case "parse errors" `Quick test_transcript_errors;
          Alcotest.test_case "replay arity mismatch" `Quick
            test_transcript_replay_arity_mismatch;
          Alcotest.test_case "partition of_string" `Quick
            test_partition_of_string;
        ] );
      ( "fd",
        [
          Alcotest.test_case "unary fds" `Quick test_unary_fds;
          Alcotest.test_case "composite fds" `Quick test_holds_fd_composite;
          Alcotest.test_case "minimal keys" `Quick test_minimal_keys;
          Alcotest.test_case "inclusion + suggestions" `Quick
            test_inclusion_and_suggestions;
          Alcotest.test_case "inclusion of empty column" `Quick
            test_inclusion_empty_column;
        ] );
    ]
