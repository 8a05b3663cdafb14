(* Tests for the inference core: signature classes, the knowledge state,
   the version space (against brute-force oracles), informativeness,
   strategies, the optimal policy, sessions, interaction modes, minimal
   queries, statistics and query rendering.

   The central correctness property — State.classify agrees with the
   brute-force definition of informativeness over the whole lattice — is
   checked both on hand-picked cases and with qcheck over random label
   sequences. *)

module P = Jim_partition.Partition
module Penum = Jim_partition.Penum
module V = Jim_relational.Value
module T = Jim_relational.Tuple0
module R = Jim_relational.Relation
module Schema = Jim_relational.Schema
module W = Jim_workloads
open Jim_core

let partition = Alcotest.testable P.pp P.equal

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* Random partitions of size n (as in test_partition). *)
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

(* A random consistent labelling scenario over n attributes: a goal
   partition plus a list of tuple signatures, labelled by the goal. *)
let gen_scenario n =
  QCheck.Gen.(
    let* goal = gen_partition_sized n in
    let* sigs = list_size (int_range 1 8) (gen_partition_sized n) in
    return (goal, sigs))

let arb_scenario n =
  QCheck.make
    ~print:(fun (g, sigs) ->
      "goal " ^ P.to_string g ^ " sigs "
      ^ String.concat " " (List.map P.to_string sigs))
    (gen_scenario n)

let state_of_scenario (goal, sigs) =
  List.fold_left
    (fun st sg ->
      let lbl = if P.refines goal sg then State.Pos else State.Neg in
      State.add_exn st lbl sg)
    (State.create (P.size goal))
    sigs

(* Brute force: all consistent predicates by scanning the whole lattice. *)
let brute_consistent n st =
  let out = ref [] in
  Penum.iter_all n (fun q -> if State.consistent st q then out := q :: !out);
  !out

(* ------------------------------------------------------------------ *)
(* Sigclass                                                            *)

let test_sigclass_grouping () =
  let rel =
    R.of_rows ~name:"r"
      (Schema.of_list [ ("a", V.Tstring); ("b", V.Tstring) ])
      V.[
          [ Str "x"; Str "x" ];
          [ Str "y"; Str "z" ];
          [ Str "q"; Str "q" ];
          [ Str "y"; Str "z" ];
        ]
  in
  let classes, row_class = Sigclass.classes rel in
  (* Rows 0 and 2 share signature {0,1}; rows 1 and 3 share bottom. *)
  Alcotest.(check int) "two classes" 2 (Array.length classes);
  Alcotest.(check (array int)) "row -> class" [| 0; 1; 0; 1 |] row_class;
  Alcotest.(check (list int)) "class 0 rows" [ 0; 2 ] classes.(0).Sigclass.rows;
  Alcotest.(check (list int)) "class 1 rows" [ 1; 3 ] classes.(1).Sigclass.rows;
  Alcotest.(check int) "total rows" 4 (Sigclass.total_rows classes);
  Alcotest.(check int) "representative" 0
    (Sigclass.representative classes.(0));
  Alcotest.(check (option int)) "find" (Some 1)
    (Sigclass.find classes (P.bottom 2));
  Alcotest.(check (option int)) "find missing" None
    (Sigclass.find (Sigclass.of_signatures [ P.bottom 3 ]) (P.top 3))

(* ------------------------------------------------------------------ *)
(* State                                                               *)

let test_state_initial () =
  let st = State.create 4 in
  Alcotest.(check partition) "canonical is top" (P.top 4) (State.canonical st);
  (* Everything is consistent initially. *)
  Penum.iter_all 4 (fun q ->
      Alcotest.(check bool) (P.to_string q) true (State.consistent st q))

let test_state_positive_meets () =
  let st = State.create 4 in
  let s1 = P.of_blocks 4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  let s2 = P.of_blocks 4 [ [ 0; 1; 2 ] ] in
  let st = State.add_exn st State.Pos s1 in
  let st = State.add_exn st State.Pos s2 in
  Alcotest.(check partition) "meet of sigs"
    (P.of_blocks 4 [ [ 0; 1 ] ])
    (State.canonical st)

let test_state_contradictions () =
  let st = State.create 3 in
  let sg = P.of_blocks 3 [ [ 0; 1 ] ] in
  (* Negative then positive with the same signature: the positive makes
     s = sg, which the stored negative swallows. *)
  let st = State.add_exn st State.Neg sg in
  (match State.add st State.Pos sg with
  | Error `Contradiction -> ()
  | Ok _ -> Alcotest.fail "expected contradiction");
  (* Positive then negative with the same signature. *)
  let st2 = State.add_exn (State.create 3) State.Pos sg in
  (match State.add st2 State.Neg sg with
  | Error `Contradiction -> ()
  | Ok _ -> Alcotest.fail "expected contradiction");
  (* A negative above the current s: s <= sig means contradiction. *)
  let st3 = State.add_exn (State.create 3) State.Pos sg in
  match State.add st3 State.Neg (P.top 3) with
  | Error `Contradiction -> ()
  | Ok _ -> Alcotest.fail "expected contradiction (negative above s)"

let test_state_negative_redundancy () =
  (* A negative dominated by an existing one must not grow the store. *)
  let st = State.create 4 in
  let big = P.of_blocks 4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  let small = P.of_blocks 4 [ [ 0; 1 ] ] in
  let st = State.add_exn st State.Neg big in
  let st = State.add_exn st State.Neg small in
  Alcotest.(check int) "one effective negative" 1
    (List.length st.State.negatives);
  Alcotest.(check partition) "the dominating one" big
    (List.hd st.State.negatives)

let test_state_arity_mismatch () =
  let st = State.create 4 in
  Alcotest.(check bool) "arity mismatch raises" true
    (try
       ignore (State.add st State.Pos (P.top 3));
       false
     with Invalid_argument _ -> true)

let prop_state_consistency_brute =
  (* The normal-form consistency test equals the defining one: q is
     consistent iff q <= every positive signature and q is not <= any
     negative signature. *)
  qtest "State.consistent = definition" (arb_scenario 5)
    (fun ((goal, sigs) as sc) ->
      let st = state_of_scenario sc in
      let pos, neg =
        List.partition (fun sg -> P.refines goal sg) sigs
      in
      let ok = ref true in
      Penum.iter_all 5 (fun q ->
          let def =
            List.for_all (fun sg -> P.refines q sg) pos
            && not (List.exists (fun sg -> P.refines q sg) neg)
          in
          if State.consistent st q <> def then ok := false);
      !ok)

let prop_goal_always_consistent =
  qtest "the goal survives its own labels" (arb_scenario 6)
    (fun ((goal, _) as sc) ->
      let st = state_of_scenario sc in
      State.consistent st goal)

let prop_classify_brute =
  (* classify agrees with the brute-force three-way split of the lattice. *)
  qtest "State.classify = brute force" (arb_scenario 5)
    (fun ((_, _) as sc) ->
      let st = state_of_scenario sc in
      let consistent = brute_consistent 5 st in
      QCheck.assume (consistent <> []);
      let ok = ref true in
      Penum.iter_all 5 (fun sg ->
          let selects = List.filter (fun q -> P.refines q sg) consistent in
          let expected =
            if List.length selects = List.length consistent then
              State.Certain_pos
            else if selects = [] then State.Certain_neg
            else State.Informative
          in
          if State.classify st sg <> expected then ok := false);
      !ok)

let prop_state_key_injective =
  (* [State.key a = State.key b] exactly when [a] and [b] have equal [s]
     and negatives.  Signatures equate attributes among 1, n-3 and n-1,
     and the second state relabels the first's tuples in another order
     (equal states), or swaps attributes 1 and n-3 in them (on 260
     attributes: states that differ only in representatives 1 and 257,
     which agree in their low byte, so they need the two-byte packing),
     or is drawn independently. *)
  let gen =
    QCheck.Gen.(
      let* n = oneofl [ 4; 260 ] in
      let ends = [| 1; n - 3; n - 1 |] in
      let atom =
        let* a = int_bound 2 in
        let* b = int_bound 2 in
        return (ends.(a), ends.(b))
      in
      let sg = map (P.of_pairs n) (list_size (int_range 0 2) atom) in
      let swap p =
        let perm i = if i = 1 then n - 3 else if i = n - 3 then 1 else i in
        P.of_pairs n (List.map (fun (i, j) -> (perm i, perm j)) (P.pairs p))
      in
      let* goal = sg in
      let* a = list_size (int_range 0 4) sg in
      let* b =
        oneof
          [
            map (fun b -> (goal, b)) (shuffle_l a);
            return (swap goal, List.map swap a);
            pair sg (list_size (int_range 0 4) sg);
          ]
      in
      return ((goal, a), b))
  in
  let print ((ga, a), (gb, b)) =
    let sc g l = String.concat " " (List.map P.to_string (g :: l)) in
    Printf.sprintf "a: %s | b: %s" (sc ga a) (sc gb b)
  in
  qtest "State.key equal iff s and negatives equal" (QCheck.make ~print gen)
    (fun (a, b) ->
      let sa = state_of_scenario a and sb = state_of_scenario b in
      let same =
        P.equal sa.State.s sb.State.s
        && List.equal P.equal sa.State.negatives sb.State.negatives
      in
      State.key sa = State.key sb = same)

let prop_informative_label_shrinks_vs =
  (* Labelling an informative signature strictly shrinks the version
     space, whichever consistent answer is given. *)
  qtest "informative labels strictly shrink the version space"
    (arb_scenario 5) (fun sc ->
      let st = state_of_scenario sc in
      let before = List.length (brute_consistent 5 st) in
      QCheck.assume (before > 0);
      let ok = ref true in
      Penum.iter_all 5 (fun sg ->
          if State.classify st sg = State.Informative then
            List.iter
              (fun lbl ->
                match State.add st lbl sg with
                | Ok st' ->
                  let after = List.length (brute_consistent 5 st') in
                  if not (after < before && after >= 1) then ok := false
                | Error `Contradiction ->
                  (* An informative tuple admits both answers. *)
                  ok := false)
              [ State.Pos; State.Neg ]);
      !ok)

(* ------------------------------------------------------------------ *)
(* Version space                                                       *)

let prop_vs_count_brute =
  qtest "Version_space.count = brute force" (arb_scenario 5) (fun sc ->
      let st = state_of_scenario sc in
      Version_space.count st
      = float_of_int (List.length (brute_consistent 5 st)))

let prop_vs_enumerate_brute =
  qtest ~count:100 "Version_space.enumerate = brute force" (arb_scenario 5)
    (fun sc ->
      let st = state_of_scenario sc in
      let a = List.sort P.compare (Version_space.enumerate st) in
      let b = List.sort P.compare (brute_consistent 5 st) in
      List.length a = List.length b && List.for_all2 P.equal a b)

let test_vs_singleton_on () =
  let open W.Flights in
  let st =
    List.fold_left
      (fun st (k, lbl) -> State.add_exn st lbl (signature k))
      (State.create 5)
      [ (3, State.Pos); (7, State.Neg); (8, State.Neg) ]
  in
  let classes, _ = Sigclass.classes instance in
  Alcotest.(check bool) "done" true (Version_space.is_singleton_on st classes);
  let st_partial = State.add_exn (State.create 5) State.Pos (signature 3) in
  Alcotest.(check bool) "not done" false
    (Version_space.is_singleton_on st_partial classes)

let test_vs_equivalence_classes () =
  (* After (3)+ on the flights instance the four consistent predicates
     fall into distinct instance-equivalence classes. *)
  let open W.Flights in
  let st = State.add_exn (State.create 5) State.Pos (signature 3) in
  let classes, _ = Sigclass.classes instance in
  let eq = Version_space.equivalence_classes st classes in
  Alcotest.(check int) "4 consistent predicates" 4
    (List.fold_left (fun acc (_, qs) -> acc + List.length qs) 0 eq);
  Alcotest.(check bool) "more than one equivalence class" true
    (List.length eq > 1)

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)

let mk_ctx st classes rng_seed =
  let informative = ref [] in
  Array.iteri
    (fun i (c : Sigclass.cls) ->
      if State.classify st c.Sigclass.sg = State.Informative then
        informative := i :: !informative)
    classes;
  {
    Strategy.state = st;
    classes;
    informative = Array.of_list (List.rev !informative);
    memo = Scorer.new_memo ();
    rng = Random.State.make [| rng_seed |];
  }

let test_strategies_contract () =
  (* Every strategy returns an informative class, or None iff none left. *)
  let classes, _ = Sigclass.classes W.Flights.instance in
  let st0 = State.create 5 in
  List.iter
    (fun strat ->
      let ctx = mk_ctx st0 classes 1 in
      (match strat.Strategy.pick ctx with
      | None -> Alcotest.fail (strat.Strategy.name ^ ": no pick on fresh state")
      | Some c ->
        Alcotest.(check bool)
          (strat.Strategy.name ^ " picks informative")
          true
          (Array.mem c ctx.Strategy.informative));
      (* Finished state: inference over, nothing to pick. *)
      let st_done =
        List.fold_left
          (fun st (k, l) -> State.add_exn st l (W.Flights.signature k))
          st0
          [ (3, State.Pos); (7, State.Neg); (8, State.Neg) ]
      in
      let ctx_done = mk_ctx st_done classes 1 in
      Alcotest.(check bool)
        (strat.Strategy.name ^ " returns None when done")
        true
        (strat.Strategy.pick ctx_done = None))
    (Strategy.all @ [ Strategy.optimal () ])

let test_strategy_find () =
  Alcotest.(check bool) "find existing" true
    (Strategy.find "lookahead-entropy" <> None);
  Alcotest.(check bool) "find missing" true (Strategy.find "nope" = None)

let test_decided_counts_bounds () =
  let classes, _ = Sigclass.classes W.Flights.instance in
  let st = State.create 5 in
  let ctx = mk_ctx st classes 1 in
  let inf_list = Array.to_list ctx.Strategy.informative in
  List.iter
    (fun c ->
      let p, n = Strategy.decided_counts st classes inf_list c in
      let total = List.length inf_list in
      Alcotest.(check bool) "counts within bounds" true
        (p >= 1 && p <= total && n >= 1 && n <= total))
    inf_list

let test_hypothetical_branches () =
  let st = State.create 5 in
  let sg = W.Flights.signature 3 in
  (match Strategy.hypothetical st sg with
  | Some _, Some _ -> ()
  | _ -> Alcotest.fail "fresh state: both branches live");
  (* After (3)+ the class of (3) is certain positive: the negative branch
     contradicts. *)
  let st' = State.add_exn st State.Pos sg in
  match Strategy.hypothetical st' sg with
  | Some _, None -> ()
  | _ -> Alcotest.fail "expected dead negative branch"

let scorer_matches_reference name n =
  (* The memoised scorer agrees with the unmemoised list-based reference
     implementations kept in Strategy. *)
  qtest ~count:120 name (arb_scenario n) (fun (goal, sigs) ->
      let k = List.length sigs / 2 in
      let labelled = List.filteri (fun i _ -> i < k) sigs in
      let st = state_of_scenario (goal, labelled) in
      let classes = Sigclass.of_signatures sigs in
      let sc = Scorer.of_state st classes in
      let inf = Array.to_list (Scorer.informative sc) in
      List.for_all
        (fun c ->
          Scorer.decided_counts sc c = Strategy.decided_counts st classes inf c
          && Scorer.decided_cards sc c
             = Strategy.decided_cards st classes inf c)
        inf)

let prop_scorer_matches_reference =
  scorer_matches_reference "scorer counts = unmemoised reference" 5

(* Twelve attributes need 66 pair bits: two words per signature. *)
let prop_scorer_matches_reference_wide =
  scorer_matches_reference
    "scorer counts = unmemoised reference, 12 attributes" 12

let prop_scorer_matches_reference_warm =
  (* The same agreement read back through an already populated memo, as
     within one pick: the second pass is answered from memo hits only, so
     every status it returns — counts, and the informative set of the
     state and of each hypothetical branch — is decoded from a stored
     byte rather than computed. *)
  qtest ~count:120 "scorer counts = unmemoised reference, populated cache"
    (arb_scenario 5) (fun (goal, sigs) ->
      let k = List.length sigs / 2 in
      let labelled = List.filteri (fun i _ -> i < k) sigs in
      let st = state_of_scenario (goal, labelled) in
      let classes = Sigclass.of_signatures sigs in
      let memo = Scorer.new_memo () in
      let pass () =
        let sc = Scorer.of_state ~memo st classes in
        let inf = Array.to_list (Scorer.informative sc) in
        let statuses_agree = function
          | None -> true
          | Some st' ->
            let expected =
              List.filter
                (fun i ->
                  State.classify st' classes.(i).Sigclass.sg
                  = State.Informative)
                (List.init (Array.length classes) Fun.id)
            in
            Array.to_list (Scorer.informative (Scorer.of_state ~memo st' classes))
            = expected
        in
        statuses_agree (Some st)
        && List.for_all
             (fun c ->
               let p, n = Scorer.hypothetical sc c in
               Scorer.decided_counts sc c
               = Strategy.decided_counts st classes inf c
               && Scorer.decided_cards sc c
                  = Strategy.decided_cards st classes inf c
               && statuses_agree p && statuses_agree n)
             inf
      in
      let first = pass () in
      Scorer.record memo;
      let before = Metrics.snapshot () in
      let second = pass () in
      Scorer.record memo;
      let d = Metrics.diff (Metrics.snapshot ()) before in
      first && second && d.Metrics.cache_misses = 0 && d.Metrics.cache_hits > 0)

(* [Scorer.best] is the first maximum in informative order under
   strict [>]: the lowest class index of the best group.  Scores come
   from a table of few values, infinities included, so ties are common
   (one entry per class: a scenario has at most 8 signatures);
   labelling every signature leaves nothing informative. *)
let reference_best inf score =
  List.fold_left
    (fun acc i ->
      match acc with
      | Some (_, bs) when not (score i > bs) -> acc
      | _ -> Some (i, score i))
    None inf
  |> Option.map fst

let prop_best_matches_reference =
  let gen =
    QCheck.Gen.(
      let* ((_, sigs) as sc) = gen_scenario 5 in
      let* k = int_range 0 (List.length sigs) in
      let* scores =
        array_repeat 8 (oneofl [ neg_infinity; -1.0; 0.0; 1.0; infinity ])
      in
      return (sc, k, scores))
  in
  let print ((g, sigs), k, scores) =
    Printf.sprintf "goal %s sigs %s labelled %d scores %s" (P.to_string g)
      (String.concat " " (List.map P.to_string sigs))
      k
      (String.concat " " (Array.to_list (Array.map string_of_float scores)))
  in
  qtest ~count:300 "Scorer.best = first maximum in informative order"
    (QCheck.make ~print gen) (fun ((goal, sigs), k, scores) ->
      let st = state_of_scenario (goal, List.filteri (fun i _ -> i < k) sigs) in
      let sc = Scorer.of_state st (Sigclass.of_signatures sigs) in
      let score i = scores.(i) in
      Scorer.best sc (fun _ i -> score i)
      = reference_best (Array.to_list (Scorer.informative sc)) score)

(* The engine's logical work, pinned per strategy: questions asked, then
   the [Metrics.diff] of one closed-loop session — meets, classifications
   evaluated (the status refresh after each answer included), and hits
   and misses of each pick's memo.  These count operations, not time, so
   a faster kernel must leave every figure as it is.  Instances are
   (attributes, tuples, domain), goal rank 2, seed 3.  [optimal] is left
   out: it is exponential on these instances, and it picks without the
   scorer. *)
let engine_counts =
  [
    ( (6, 120, 6),
      [
        ("random", 20, 0, 1001, 0, 0);
        ("local-lex", 17, 0, 702, 0, 0);
        ("local-specific", 20, 759, 759, 0, 0);
        ("local-general", 31, 2263, 2263, 0, 0);
        ("lookahead-maximin", 8, 19684, 39879, 2344, 39570);
        ("lookahead-expected", 14, 56349, 113479, 0, 112598);
        ("lookahead-entropy", 5, 12621, 25543, 2444, 25326);
        ("lookahead-2", 8, 74505, 240025, 299162, 239698);
      ] );
    ( (12, 60, 12),
      [
        ("random", 51, 0, 1732, 0, 0);
        ("local-lex", 25, 0, 1003, 0, 0);
        ("local-specific", 5, 179, 179, 0, 0);
        ("local-general", 3, 177, 177, 0, 0);
        ("lookahead-maximin", 4, 4042, 7731, 6580, 7598);
        ("lookahead-expected", 3, 10778, 21067, 0, 20890);
        ("lookahead-entropy", 8, 6553, 12689, 5716, 12474);
        ("lookahead-2", 8, 36216, 105022, 118942, 104802);
      ] );
  ]

let test_engine_counts () =
  List.iter
    (fun ((n_attrs, n_tuples, domain), rows) ->
      let inst =
        W.Synthetic.generate
          { W.Synthetic.n_attrs; n_tuples; domain; goal_rank = 2; seed = 3 }
      in
      let classes, _ = Sigclass.classes inst.W.Synthetic.relation in
      let oracle = Oracle.of_goal inst.W.Synthetic.goal in
      List.iter
        (fun (name, questions, meets, classify, hits, misses) ->
          let strategy = Result.get_ok (Strategy.of_string name) in
          let before = Metrics.snapshot () in
          let o =
            Session.run_classes ~seed:7 ~strategy ~oracle ~n:n_attrs classes
          in
          let d = Metrics.diff (Metrics.snapshot ()) before in
          Alcotest.(check (list int))
            (Printf.sprintf "%d attrs, %s: questions meets classify hits misses"
               n_attrs name)
            [ questions; meets; classify; hits; misses ]
            [
              o.Session.interactions;
              d.Metrics.meets;
              d.Metrics.classify_calls;
              d.Metrics.cache_hits;
              d.Metrics.cache_misses;
            ])
        rows)
    engine_counts

let test_entropy_wide_instance () =
  (* Regression: on instances wide enough that Version_space.count
     saturates to infinity, the entropy score used to degenerate
     (inf /. inf = NaN) and the argmax silently returned the first
     informative class.  Build a 250-attribute chain a ⊏ b ⊏ c whose
     branch version spaces all overflow; the maximin fallback must pick
     the middle class (index 2), not the first. *)
  let n = 250 in
  let block len = P.of_pairs n (List.init (len - 1) (fun i -> (i, i + 1))) in
  let a = block 220 and b = block 221 and c = block 222 in
  let classes = Sigclass.of_signatures [ a; c; b ] in
  let st = State.create n in
  let ctx = mk_ctx st classes 1 in
  (* All branch version spaces are non-finite, so the entropy itself is
     unusable on every candidate... *)
  let sc = Strategy.scorer_of ctx in
  Array.iter
    (fun i ->
      let vp, vn = Scorer.vs_split sc i in
      Alcotest.(check bool) "branch VS overflows" false
        (Float.is_finite (vp +. vn)))
    ctx.Strategy.informative;
  (* ...and the maximin fallback separates the candidates:
     min(p,n) = 1, 1, 2 for classes 0 (= a), 1 (= c), 2 (= b). *)
  Alcotest.(check (option int)) "entropy picks the middle of the chain"
    (Some 2)
    (Strategy.lookahead_entropy.Strategy.pick ctx)

(* ------------------------------------------------------------------ *)
(* Optimal                                                             *)

let test_optimal_flights () =
  let classes, _ = Sigclass.classes W.Flights.instance in
  let d = Optimal.worst_case_depth (State.create 5) classes in
  (* The paper's walkthrough uses 3 labels; the optimal policy cannot
     need more than the number of classes and at least log2 of the
     number of instance-equivalence outcomes. *)
  Alcotest.(check bool) "depth sane" true (d >= 2 && d <= 6);
  (* Every heuristic strategy, against every goal, needs at least ...
     the optimal worst case is a lower bound on the worst-case of any
     strategy. *)
  List.iter
    (fun strat ->
      let worst = ref 0 in
      Penum.iter_all 5 (fun goal ->
          let o =
            Session.run ~strategy:strat ~oracle:(Oracle.of_goal goal)
              W.Flights.instance
          in
          worst := max !worst o.Session.interactions);
      Alcotest.(check bool)
        (strat.Strategy.name ^ " worst >= optimal")
        true (!worst >= d))
    Strategy.all

let test_optimal_matches_its_own_bound () =
  (* Driving sessions with the optimal strategy never exceeds the
     announced worst-case depth. *)
  let classes, _ = Sigclass.classes W.Flights.instance in
  let d = Optimal.worst_case_depth (State.create 5) classes in
  let strat = Strategy.optimal () in
  Penum.iter_all 5 (fun goal ->
      let o =
        Session.run ~strategy:strat ~oracle:(Oracle.of_goal goal)
          W.Flights.instance
      in
      Alcotest.(check bool)
        ("goal " ^ P.to_string goal)
        true
        (o.Session.interactions <= d))

let test_optimal_too_large () =
  let inst =
    W.Synthetic.generate
      { W.Synthetic.default with W.Synthetic.n_attrs = 8; n_tuples = 120; seed = 1 }
  in
  let classes, _ = Sigclass.classes inst.W.Synthetic.relation in
  Alcotest.(check bool) "raises Too_large" true
    (try
       ignore (Optimal.worst_case_depth ~max_states:50 (State.create 8) classes);
       false
     with Optimal.Too_large -> true)

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)

let test_oracle_goal () =
  let o = Oracle.of_goal W.Flights.q1 in
  Alcotest.(check bool) "selects (3)" true
    (Oracle.label_tuple o (W.Flights.tuple 3) = State.Pos);
  Alcotest.(check bool) "rejects (1)" true
    (Oracle.label_tuple o (W.Flights.tuple 1) = State.Neg);
  Alcotest.(check bool) "goal recorded" true
    (match Oracle.goal o with Some g -> P.equal g W.Flights.q1 | None -> false)

let test_oracle_noisy_flips () =
  let honest = Oracle.of_goal W.Flights.q1 in
  let always_flip = Oracle.noisy ~seed:1 ~flip_probability:1.0 honest in
  Alcotest.(check bool) "flipped" true
    (Oracle.label always_flip (W.Flights.signature 3) = State.Neg);
  let never_flip = Oracle.noisy ~seed:1 ~flip_probability:0.0 honest in
  Alcotest.(check bool) "not flipped" true
    (Oracle.label never_flip (W.Flights.signature 3) = State.Pos)

(* ------------------------------------------------------------------ *)
(* Session                                                             *)

let prop_session_converges =
  (* On random instances, every strategy terminates with a query
     instance-equivalent to the goal, asking at most #classes
     questions. *)
  let arb =
    QCheck.make
      ~print:(fun (goal, sigs) ->
        P.to_string goal ^ " / " ^ string_of_int (List.length sigs))
      QCheck.Gen.(
        let* goal = gen_partition_sized 5 in
        let* sigs = list_size (int_range 1 15) (gen_partition_sized 5) in
        return (goal, sigs))
  in
  qtest ~count:100 "sessions converge to instance-equivalence" arb
    (fun (goal, sigs) ->
      let classes = Sigclass.of_signatures sigs in
      List.for_all
        (fun strat ->
          let o =
            Session.run_classes ~strategy:strat ~oracle:(Oracle.of_goal goal)
              ~n:5 classes
          in
          (not o.Session.contradiction)
          && o.Session.interactions <= Array.length classes
          && List.for_all
               (fun sg -> P.refines o.Session.query sg = P.refines goal sg)
               sigs)
        Strategy.all)

let test_session_engine_stepwise () =
  let eng = Session.create W.Flights.instance in
  Alcotest.(check bool) "not finished" false (Session.finished eng);
  Alcotest.(check int) "nothing asked" 0 (Session.asked eng);
  (* Drive manually with the entropy strategy against goal Q2. *)
  let rng = Random.State.make [| 0 |] in
  let oracle = Oracle.of_goal W.Flights.q2 in
  let steps = ref 0 in
  while not (Session.finished eng) do
    incr steps;
    if !steps > 12 then Alcotest.fail "engine failed to terminate";
    match Session.question eng Strategy.lookahead_entropy rng with
    | None -> Alcotest.fail "question on unfinished engine"
    | Some ci ->
      let sg = (Session.classes eng).(ci).Sigclass.sg in
      (match Session.answer eng ci (Oracle.label oracle sg) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "sound oracle contradicted")
  done;
  Alcotest.(check int) "asked = steps" !steps (Session.asked eng);
  Alcotest.(check partition) "result is Q2" W.Flights.q2 (Session.result eng)

let test_closed_loop_never_contradicts () =
  (* In the closed loop a contradiction is impossible by construction:
     the engine only asks informative classes, and an informative class
     admits both answers.  Even a label-flipping adversary cannot derail
     a run - it can only steer it to a different (consistent) query. *)
  let adversary =
    Oracle.noisy ~seed:3 ~flip_probability:0.5 (Oracle.of_goal W.Flights.q2)
  in
  for seed = 1 to 10 do
    let o =
      Session.run ~seed ~strategy:Strategy.random ~oracle:adversary
        W.Flights.instance
    in
    Alcotest.(check bool) "no contradiction possible" false
      o.Session.contradiction
  done

let test_session_contradiction_detected () =
  (* Mislabelling a tuple the state already forces IS detected: after
     (12)+ the class of (3) is certainly positive; answering it with -
     must be rejected and leave the engine untouched. *)
  let eng = Session.create W.Flights.instance in
  let class_of k =
    Option.get (Sigclass.find (Session.classes eng) (W.Flights.signature k))
  in
  (match Session.answer eng (class_of 12) State.Pos with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "consistent label rejected");
  Alcotest.(check bool) "(3) is now certain positive" true
    (Session.status eng (class_of 3) = State.Certain_pos);
  (match Session.answer eng (class_of 3) State.Neg with
  | Error Session.Contradiction -> ()
  | Ok () | Error Session.Nothing_to_undo ->
    Alcotest.fail "contradictory label accepted");
  Alcotest.(check int) "engine unchanged" 1 (Session.asked eng)

let test_session_top_questions () =
  let eng = Session.create W.Flights.instance in
  let rng = Random.State.make [| 0 |] in
  let top = Session.top_questions eng Strategy.lookahead_entropy rng 3 in
  Alcotest.(check int) "3 distinct proposals" 3
    (List.length (List.sort_uniq compare top));
  List.iter
    (fun ci ->
      Alcotest.(check bool) "proposal informative" true
        (Session.status eng ci = State.Informative))
    top

let test_top_questions_preference_order () =
  (* top_questions returns k distinct classes in strategy-preference
     order: the sequence produced by repeatedly picking from the
     informative set with the already-proposed classes masked out. *)
  let classes, _ = Sigclass.classes W.Flights.instance in
  let st = State.create 5 in
  let strat = Strategy.lookahead_maximin in
  let k = 3 in
  let expected =
    let masked = Array.make (Array.length classes) false in
    let rec go acc j =
      if j = k then List.rev acc
      else begin
        let informative = ref [] in
        Array.iteri
          (fun i (c : Sigclass.cls) ->
            if
              (not masked.(i))
              && State.classify st c.Sigclass.sg = State.Informative
            then informative := i :: !informative)
          classes;
        let ctx =
          {
            Strategy.state = st;
            classes;
            informative = Array.of_list (List.rev !informative);
            memo = Scorer.new_memo ();
            rng = Random.State.make [| 0 |];
          }
        in
        match strat.Strategy.pick ctx with
        | None -> List.rev acc
        | Some c ->
          masked.(c) <- true;
          go (c :: acc) (j + 1)
      end
    in
    go [] 0
  in
  let eng = Session.create W.Flights.instance in
  let rng = Random.State.make [| 0 |] in
  let got = Session.top_questions eng strat rng k in
  Alcotest.(check (list int)) "preference order" expected got;
  Alcotest.(check int) "k distinct classes" k
    (List.length (List.sort_uniq compare got))

(* ------------------------------------------------------------------ *)
(* Interaction modes                                                   *)

let test_modes_agreement () =
  (* All four modes infer instance-equivalent queries. *)
  let goal = W.Flights.q2 in
  let oracle = Oracle.of_goal goal in
  let inst = W.Flights.instance in
  let order = List.init 12 (fun i -> i) in
  let reports =
    [
      Interaction.mode1_label_all ~order ~oracle inst;
      Interaction.mode2_gray_out ~order ~oracle inst;
      Interaction.mode3_top_k ~k:2 ~strategy:Strategy.local_lex ~oracle inst;
      Interaction.mode4_interactive ~strategy:Strategy.local_lex ~oracle inst;
    ]
  in
  List.iter
    (fun (r : Interaction.report) ->
      Alcotest.(check bool)
        (r.Interaction.mode ^ " equivalent")
        true
        (Jquery.equivalent_on
           (Jquery.make W.Flights.schema r.Interaction.query)
           (Jquery.make W.Flights.schema goal)
           inst))
    reports;
  (* Mode 1 labels everything. *)
  Alcotest.(check int) "mode1 labels all" 12
    (List.nth reports 0).Interaction.labels_given

let test_mode2_reversed_order () =
  (* The user's order matters for mode 2 but the result does not. *)
  let goal = W.Flights.q1 in
  let oracle = Oracle.of_goal goal in
  let inst = W.Flights.instance in
  let fwd =
    Interaction.mode2_gray_out ~order:(List.init 12 (fun i -> i)) ~oracle inst
  in
  let bwd =
    Interaction.mode2_gray_out
      ~order:(List.rev (List.init 12 (fun i -> i)))
      ~oracle inst
  in
  Alcotest.(check bool) "both equivalent to goal" true
    (Jquery.equivalent_on
       (Jquery.make W.Flights.schema fwd.Interaction.query)
       (Jquery.make W.Flights.schema bwd.Interaction.query)
       inst)

(* ------------------------------------------------------------------ *)
(* Minimal (most general) queries                                      *)

let test_minimal_no_negatives () =
  let st = State.add_exn (State.create 4) State.Pos (P.top 4) in
  Alcotest.(check (list partition)) "bottom only" [ P.bottom 4 ]
    (Minimal.most_general st)

let prop_minimal_correct =
  qtest ~count:150 "most_general = brute-force minimal consistent"
    (arb_scenario 5) (fun sc ->
      let st = state_of_scenario sc in
      let consistent = brute_consistent 5 st in
      let brute_minimal =
        List.filter
          (fun q ->
            not
              (List.exists
                 (fun q' -> (not (P.equal q q')) && P.refines q' q)
                 consistent))
          consistent
        |> List.sort P.compare
      in
      let computed = List.sort P.compare (Minimal.most_general st) in
      List.length brute_minimal = List.length computed
      && List.for_all2 P.equal brute_minimal computed)

let test_minimal_flights () =
  (* After (3)+ and (8)-, consistent = {(2,4)} and Q2; most general is
     {(2,4)} alone (Airline = Discount). *)
  let st =
    List.fold_left
      (fun st (k, l) -> State.add_exn st l (W.Flights.signature k))
      (State.create 5)
      [ (3, State.Pos); (8, State.Neg) ]
  in
  Alcotest.(check (list partition))
    "most general"
    [ P.of_pairs 5 [ (2, 4) ] ]
    (Minimal.most_general st)

(* ------------------------------------------------------------------ *)
(* Stats and Jquery                                                    *)

let test_stats_engine () =
  let eng = Session.create W.Flights.instance in
  let s0 = Stats.of_engine eng in
  Alcotest.(check int) "nothing labeled" 0 s0.Stats.labeled;
  Alcotest.(check int) "12 total" 12 s0.Stats.total;
  (match
     Session.answer eng
       (Option.get (Sigclass.find (Session.classes eng) (W.Flights.signature 3)))
       State.Pos
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unexpected");
  let s1 = Stats.of_engine eng in
  Alcotest.(check int) "one labeled" 1 s1.Stats.labeled;
  (* (4) went certain for free. *)
  Alcotest.(check int) "one auto" 1 s1.Stats.auto_determined;
  Alcotest.(check (float 0.001)) "vs = 4" 4.0 s1.Stats.version_space

let test_jquery_rendering () =
  let q = Jquery.make W.Flights.schema W.Flights.q2 in
  Alcotest.(check string) "where" "To = City AND Airline = Discount"
    (Jquery.to_where q);
  Alcotest.(check string) "sql"
    "SELECT * FROM packages WHERE To = City AND Airline = Discount"
    (Jquery.to_sql ~from:[ "packages" ] q);
  let empty = Jquery.make W.Flights.schema (P.bottom 5) in
  Alcotest.(check string) "empty predicate" "TRUE" (Jquery.to_where empty);
  Alcotest.(check int) "eval count" 2
    (R.cardinality (Jquery.eval q W.Flights.instance))

let test_jquery_sql_roundtrip () =
  (* to_sql output runs through the SQL oracle and selects what eval does. *)
  let q = Jquery.make W.Flights.schema W.Flights.q2 in
  let sql = Jquery.to_sql ~from:[ "packages" ] q in
  let db = Jim_relational.Database.of_relations [ W.Flights.instance ] in
  match Jim_relational.Sql.exec db sql with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check (list (array string)))
      "same rows as eval"
      (List.map (Array.map V.to_string) (R.tuples (Jquery.eval q W.Flights.instance)))
      (List.map (Array.map V.to_string) (R.tuples r))

let test_jquery_arity_mismatch () =
  Alcotest.(check bool) "make checks size" true
    (try
       ignore (Jquery.make W.Flights.schema (P.top 3));
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "core"
    [
      ( "sigclass",
        [ Alcotest.test_case "grouping" `Quick test_sigclass_grouping ] );
      ( "state",
        [
          Alcotest.test_case "initial" `Quick test_state_initial;
          Alcotest.test_case "positives meet" `Quick test_state_positive_meets;
          Alcotest.test_case "contradictions" `Quick test_state_contradictions;
          Alcotest.test_case "negative redundancy" `Quick
            test_state_negative_redundancy;
          Alcotest.test_case "arity mismatch" `Quick test_state_arity_mismatch;
          prop_state_consistency_brute;
          prop_goal_always_consistent;
          prop_classify_brute;
          prop_state_key_injective;
          prop_informative_label_shrinks_vs;
        ] );
      ( "version-space",
        [
          prop_vs_count_brute;
          prop_vs_enumerate_brute;
          Alcotest.test_case "singleton-on detection" `Quick
            test_vs_singleton_on;
          Alcotest.test_case "equivalence classes" `Quick
            test_vs_equivalence_classes;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "contract" `Quick test_strategies_contract;
          Alcotest.test_case "find" `Quick test_strategy_find;
          Alcotest.test_case "decided counts bounds" `Quick
            test_decided_counts_bounds;
          Alcotest.test_case "hypothetical branches" `Quick
            test_hypothetical_branches;
          Alcotest.test_case "entropy fallback on wide instance" `Quick
            test_entropy_wide_instance;
        ] );
      ( "scorer",
        [
          prop_scorer_matches_reference;
          prop_scorer_matches_reference_warm;
          prop_scorer_matches_reference_wide;
          prop_best_matches_reference;
          Alcotest.test_case "engine counts per strategy" `Quick
            test_engine_counts;
        ] );
      ( "optimal",
        [
          Alcotest.test_case "flights depth + lower bound" `Slow
            test_optimal_flights;
          Alcotest.test_case "respects own bound" `Slow
            test_optimal_matches_its_own_bound;
          Alcotest.test_case "too large guard" `Quick test_optimal_too_large;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "goal labelling" `Quick test_oracle_goal;
          Alcotest.test_case "noise injection" `Quick test_oracle_noisy_flips;
        ] );
      ( "session",
        [
          prop_session_converges;
          Alcotest.test_case "stepwise engine" `Quick
            test_session_engine_stepwise;
          Alcotest.test_case "closed loop never contradicts" `Quick
            test_closed_loop_never_contradicts;
          Alcotest.test_case "contradiction detected" `Quick
            test_session_contradiction_detected;
          Alcotest.test_case "top questions" `Quick test_session_top_questions;
          Alcotest.test_case "top questions preference order" `Quick
            test_top_questions_preference_order;
        ] );
      ( "interaction",
        [
          Alcotest.test_case "four modes agree" `Quick test_modes_agreement;
          Alcotest.test_case "mode 2 order-insensitive result" `Quick
            test_mode2_reversed_order;
        ] );
      ( "minimal",
        [
          Alcotest.test_case "no negatives" `Quick test_minimal_no_negatives;
          prop_minimal_correct;
          Alcotest.test_case "flights case" `Quick test_minimal_flights;
        ] );
      ( "stats+jquery",
        [
          Alcotest.test_case "engine stats" `Quick test_stats_engine;
          Alcotest.test_case "rendering" `Quick test_jquery_rendering;
          Alcotest.test_case "sql roundtrip" `Quick test_jquery_sql_roundtrip;
          Alcotest.test_case "arity mismatch" `Quick test_jquery_arity_mismatch;
        ] );
    ]
