(* E1-E5: the per-figure reproductions (interaction-count experiments).
   E6 (latency) lives in main.ml with bechamel. *)

module Partition = Jim_partition.Partition
module Relation = Jim_relational.Relation
module Schema = Jim_relational.Schema
module Tuple0 = Jim_relational.Tuple0
module W = Jim_workloads
module F = W.Flights
open Jim_core
open Harness

(* ------------------------------------------------------------------ *)
(* E1: Fig. 1 and every concrete Section 2 claim.                      *)

let e1 () =
  section "E1" "Fig. 1 - the motivating example and its Section-2 claims";
  print_string (Jim_tui.Render.table F.instance);
  Printf.printf "  Q1: %s\n" (Jim_tui.Render.partition_line F.schema F.q1);
  Printf.printf "  Q2: %s\n\n" (Jim_tui.Render.partition_line F.schema F.q2);
  let st0 = State.create 5 in
  let add st k lbl = State.add_exn st lbl (F.signature k) in
  let st3 = add st0 3 State.Pos in
  let all_pass =
    List.for_all Fun.id
      [
        check "Q1 and Q2 both select tuple (3)"
          (Tuple0.satisfies F.q1 (F.tuple 3)
          && Tuple0.satisfies F.q2 (F.tuple 3));
        check "after (3)+, tuple (4) is uninformative"
          (State.classify st3 (F.signature 4) = State.Certain_pos);
        check "tuple (8) distinguishes Q1 from Q2"
          (Tuple0.satisfies F.q1 (F.tuple 8)
          && not (Tuple0.satisfies F.q2 (F.tuple 8)));
        check "{(3)+,(7)-,(8)-} leaves exactly Q2"
          (let st =
             add (add st3 7 State.Neg) 8 State.Neg
           in
           match Version_space.enumerate st with
           | [ q ] -> Partition.equal q F.q2
           | _ -> false);
        check "(12)+ prunes {(3),(4),(7)}"
          (let st = add st0 12 State.Pos in
           List.for_all
             (fun k -> State.classify st (F.signature k) <> State.Informative)
             [ 3; 4; 7 ]
          && List.for_all
               (fun k -> State.classify st (F.signature k) = State.Informative)
               [ 1; 2; 5; 6; 8; 9; 10; 11 ]);
        check "(12)- prunes {(1),(5),(9)}"
          (let st = add st0 12 State.Neg in
           List.for_all
             (fun k -> State.classify st (F.signature k) <> State.Informative)
             [ 1; 5; 9 ]
          && List.for_all
               (fun k -> State.classify st (F.signature k) = State.Informative)
               [ 2; 3; 4; 6; 7; 8; 10; 11 ]);
      ]
  in
  Printf.printf "  => E1 %s\n" (if all_pass then "reproduced" else "FAILED")

(* ------------------------------------------------------------------ *)
(* E2: the Fig. 2 loop on the motivating example.                      *)

let e2 () =
  section "E2" "Fig. 2 - interactive inference on Fig. 1 (questions to goal)";
  let strategies = strategies_with_optimal_for F.instance in
  let rows =
    List.map
      (fun strat ->
        let c1 = avg_interactions ~strategy:strat ~goal:F.q1 F.instance in
        let c2 = avg_interactions ~strategy:strat ~goal:F.q2 F.instance in
        [ strat.Strategy.name; fmt_f c1; fmt_f c2 ])
      strategies
  in
  table [ "strategy"; "goal Q1"; "goal Q2" ] rows;
  print_newline ();
  Printf.printf
    "  (paper narrative: 3 well-chosen labels suffice for Q2 - e.g. (3)+,\n\
    \   (7)-, (8)-; every strategy must land well under the 12 tuples)\n"

(* ------------------------------------------------------------------ *)
(* E3: Fig. 3's four interaction types and Fig. 4's benefit chart.     *)

let e3 () =
  section "E3" "Figs. 3-4 - four interaction types and the strategy benefit";
  let goal = F.q2 in
  let oracle = Oracle.of_goal goal in
  let instance = F.instance in
  let order = List.init (Relation.cardinality instance) (fun i -> i) in
  let strategy = Strategy.lookahead_entropy in
  let r1 = Interaction.mode1_label_all ~order ~oracle instance in
  let r2 = Interaction.mode2_gray_out ~order ~oracle instance in
  let r3 = Interaction.mode3_top_k ~k:3 ~strategy ~oracle instance in
  let r4 = Interaction.mode4_interactive ~strategy ~oracle instance in
  table
    [ "interaction type"; "labels"; "auto-decided"; "query ok" ]
    (List.map
       (fun (r : Interaction.report) ->
         [
           r.Interaction.mode;
           string_of_int r.Interaction.labels_given;
           string_of_int r.Interaction.auto_determined;
           string_of_bool
             (Jquery.equivalent_on
                (Jquery.make F.schema r.Interaction.query)
                (Jquery.make F.schema goal) instance);
         ])
       [ r1; r2; r3; r4 ]);
  print_newline ();
  print_string
    (Jim_tui.Barchart.benefit
       ~baseline:("1 label everything", r1.Interaction.labels_given)
       [
         ("2 gray out", r2.Interaction.labels_given);
         ("3 top-3", r3.Interaction.labels_given);
         ("4 JIM", r4.Interaction.labels_given);
       ]);
  ignore
    (check "modes are ordered: mode1 >= mode2 >= mode3 >= mode4"
       (r1.Interaction.labels_given >= r2.Interaction.labels_given
       && r2.Interaction.labels_given >= r3.Interaction.labels_given
       && r3.Interaction.labels_given >= r4.Interaction.labels_given))

(* ------------------------------------------------------------------ *)
(* E4: strategy comparison across instance/query complexity.           *)

let e4 ?(seeds = 8) () =
  section "E4"
    "Section 3 - local vs lookahead vs random across complexity";
  let grid = [ (4, 1); (4, 2); (5, 2); (6, 2); (6, 3); (7, 3); (8, 4) ] in
  let strategies =
    [
      Strategy.random;
      Strategy.local_lex;
      Strategy.local_specific;
      Strategy.lookahead_maximin;
      Strategy.lookahead_entropy;
      Strategy.lookahead2 ();
    ]
  in
  let results =
    List.map
      (fun (n, rank) ->
        let totals = Array.make (List.length strategies) 0.0 in
        for seed = 1 to seeds do
          let inst =
            W.Synthetic.generate
              {
                W.Synthetic.n_attrs = n;
                n_tuples = 80;
                domain = max n 8;
                goal_rank = rank;
                seed;
              }
          in
          let oracle = Oracle.of_goal inst.W.Synthetic.goal in
          List.iteri
            (fun i strat ->
              let o =
                Session.run ~seed ~strategy:strat ~oracle
                  inst.W.Synthetic.relation
              in
              totals.(i) <- totals.(i) +. float_of_int o.Session.interactions)
            strategies
        done;
        let avg = Array.map (fun t -> t /. float_of_int seeds) totals in
        ((n, rank), avg))
      grid
  in
  table
    ("attrs/rank" :: List.map (fun s -> s.Strategy.name) strategies)
    (List.map
       (fun ((n, r), avg) ->
         Printf.sprintf "%d / %d" n r
         :: Array.to_list (Array.map fmt_f avg))
       results);
  print_newline ();
  (* The paper's claim: local better on simple instances, lookahead on
     complex ones.  Compare best-local to best-lookahead at the extremes. *)
  let avg_for (n, r) = List.assoc (n, r) results in
  let local_simple = min (avg_for (4, 1)).(1) (avg_for (4, 1)).(2) in
  let look_simple = min (avg_for (4, 1)).(3) (avg_for (4, 1)).(4) in
  let complex = (8, 4) in
  let local_complex = min (avg_for complex).(1) (avg_for complex).(2) in
  let look_complex = min (avg_for complex).(3) (avg_for complex).(4) in
  Printf.printf
    "  simple  (4 attrs, rank 1): best local %.1f vs best lookahead %.1f\n"
    local_simple look_simple;
  Printf.printf
    "  complex (8 attrs, rank 4): best local %.1f vs best lookahead %.1f\n"
    local_complex look_complex;
  ignore
    (check "local competitive on simple instances"
       (local_simple <= look_simple +. 0.5));
  ignore
    (check "lookahead wins on complex instances" (look_complex < local_complex));
  ignore
    (check "random is the worst overall"
       (let sum i =
          List.fold_left (fun acc (_, avg) -> acc +. avg.(i)) 0.0 results
        in
        sum 0 > sum 1 && sum 0 > sum 2 && sum 0 > sum 3 && sum 0 > sum 4))

(* Distance to the optimal policy on a tiny instance. *)
let e4b () =
  section "E4b" "Heuristics vs the exponential optimal policy (tiny instance)";
  let inst =
    W.Synthetic.generate
      {
        W.Synthetic.n_attrs = 4;
        n_tuples = 12;
        domain = 8;
        goal_rank = 2;
        seed = 3;
      }
  in
  let classes, _ = Sigclass.classes inst.W.Synthetic.relation in
  let opt_depth =
    Optimal.worst_case_depth (State.create 4) classes
  in
  Printf.printf "  optimal worst-case questions: %d\n" opt_depth;
  let rows =
    List.map
      (fun strat ->
        (* Worst case over all possible goals? Approximate: worst over a
           sample of goal predicates. *)
        let goals =
          List.filter
            (fun g -> Partition.rank g <= 3)
            (Jim_partition.Penum.all 4)
        in
        let worst =
          List.fold_left
            (fun acc goal ->
              let o =
                Session.run ~strategy:strat ~oracle:(Oracle.of_goal goal)
                  inst.W.Synthetic.relation
              in
              max acc o.Session.interactions)
            0 goals
        in
        [ strat.Strategy.name; string_of_int worst ])
      Strategy.all
  in
  table [ "strategy"; "worst questions over all goals" ] rows;
  Printf.printf "  (optimal guarantee: %d)\n" opt_depth

(* ------------------------------------------------------------------ *)
(* E5: joining sets of pictures.                                       *)

let e5 () =
  section "E5" "Fig. 5 - joining sets of pictures (Set cards)";
  let instance = W.Setcards.pair_instance ~sample:400 ~seed:5 () in
  let goals =
    [
      ("same colour+shading", W.Setcards.same [ "colour"; "shading" ]);
      ("same symbol", W.Setcards.same [ "symbol" ]);
      ("same number+colour", W.Setcards.same [ "number"; "colour" ]);
      ("identical card", W.Setcards.same [ "number"; "symbol"; "shading"; "colour" ]);
    ]
  in
  let strategies =
    [ Strategy.random; Strategy.local_specific; Strategy.lookahead_entropy ]
  in
  table
    ("goal" :: List.map (fun s -> s.Strategy.name) strategies)
    (List.map
       (fun (name, goal) ->
         name
         :: List.map
              (fun strat ->
                fmt_f (avg_interactions ~strategy:strat ~goal instance))
              strategies)
       goals);
  Printf.printf "\n  (%d candidate pairs on screen; the user answers ~5-15)\n"
    (Relation.cardinality instance)

(* ------------------------------------------------------------------ *)
(* E2b: TPC-H-style crowd tasks (denormalised multi-relation joins).   *)

let e2b () =
  section "E2b" "Crowd joins over TPC-H-lite (multi-relation tasks)";
  let db = W.Tpch.generate ~seed:2 W.Tpch.small in
  let tasks =
    [
      ("customer-orders", W.Tpch.fk_customer_orders);
      ("orders-lineitem", W.Tpch.fk_orders_lineitem);
      ("customer-orders-lineitem", W.Tpch.fk_customer_orders_lineitem);
      ("region-nation-customer", W.Tpch.fk_nation_chain);
    ]
  in
  let strategies =
    [ Strategy.random; Strategy.local_specific; Strategy.lookahead_maximin ]
  in
  table
    ("task" :: List.map (fun s -> s.Strategy.name) strategies)
    (List.filter_map
       (fun (name, spec) ->
         match W.Denorm.task_of_names ~sample:400 ~seed:3 db spec with
         | Error e ->
           Printf.printf "  %s: %s\n" name e;
           None
         | Ok task ->
           Some
             (name
             :: List.map
                  (fun strat ->
                    fmt_f
                      (avg_interactions ~strategy:strat
                         ~goal:task.W.Denorm.goal task.W.Denorm.instance))
                  strategies))
       tasks)

(* ------------------------------------------------------------------ *)
(* E7: crowdsourcing ablation - worker error vs redundancy.            *)

let e7 ?(trials = 30) () =
  section "E7"
    "Crowd ablation - noisy workers, majority voting (accuracy vs cost)";
  let goal = F.q2 in
  let wanted = Jquery.make F.schema goal in
  let cell flip votes =
    let ok = ref 0 and paid = ref 0 in
    for seed = 1 to trials do
      let worker =
        Oracle.noisy ~seed ~flip_probability:flip (Oracle.of_goal goal)
      in
      let o =
        Crowd.run ~seed ~votes ~strategy:Strategy.local_lex ~worker F.instance
      in
      paid := !paid + o.Crowd.paid_labels;
      let inferred = Jquery.make F.schema o.Crowd.session.Session.query in
      if
        (not o.Crowd.session.Session.contradiction)
        && Jquery.equivalent_on inferred wanted F.instance
      then incr ok
    done;
    (100.0 *. float_of_int !ok /. float_of_int trials,
     float_of_int !paid /. float_of_int trials)
  in
  let flips = [ 0.0; 0.1; 0.2; 0.3 ] and vote_options = [ 1; 3; 5 ] in
  table
    ("worker error"
    :: List.concat_map
         (fun v -> [ Printf.sprintf "acc @%d vote(s)" v; "cost" ])
         vote_options)
    (List.map
       (fun flip ->
         Printf.sprintf "%.0f%%" (100.0 *. flip)
         :: List.concat_map
              (fun votes ->
                let acc, cost = cell flip votes in
                [ Printf.sprintf "%.0f%%" acc; fmt_f cost ])
              vote_options)
       flips);
  Printf.printf
    "\n  (accuracy = inferred query instance-equivalent to the goal;\n\
    \   cost = average worker answers bought per inference)\n"

(* ------------------------------------------------------------------ *)
(* E8: adaptive interaction vs omniscient teaching sets.               *)

let e8 ?(seeds = 10) () =
  section "E8"
    "Teaching ablation - interactive strategies vs the omniscient teacher";
  let rows =
    List.map
      (fun (n, rank) ->
        let greedy_total = ref 0.0
        and exact_total = ref 0.0
        and exact_known = ref 0
        and best_session_total = ref 0.0 in
        for seed = 1 to seeds do
          let inst =
            W.Synthetic.generate
              {
                W.Synthetic.n_attrs = n;
                n_tuples = 30;
                domain = max n 8;
                goal_rank = rank;
                seed;
              }
          in
          let classes, _ = Sigclass.classes inst.W.Synthetic.relation in
          let goal = inst.W.Synthetic.goal in
          greedy_total :=
            !greedy_total
            +. float_of_int (List.length (Teaching.greedy ~goal classes));
          (match Teaching.exact_minimum ~max_size:5 ~goal classes with
          | Some m ->
            exact_total := !exact_total +. float_of_int (List.length m);
            incr exact_known
          | None -> ());
          let best =
            List.fold_left
              (fun acc strat ->
                let o =
                  Session.run ~seed ~strategy:strat
                    ~oracle:(Oracle.of_goal goal) inst.W.Synthetic.relation
                in
                min acc o.Session.interactions)
              max_int
              [ Strategy.local_specific; Strategy.lookahead_maximin ]
          in
          best_session_total := !best_session_total +. float_of_int best
        done;
        [
          Printf.sprintf "%d / %d" n rank;
          (if !exact_known = seeds then
             fmt_f (!exact_total /. float_of_int seeds)
           else "(>5)");
          fmt_f (!greedy_total /. float_of_int seeds);
          fmt_f (!best_session_total /. float_of_int seeds);
        ])
      [ (4, 1); (4, 2); (5, 2); (6, 3) ]
  in
  table
    [ "attrs/rank"; "exact minimum"; "greedy teacher"; "best strategy" ]
    rows;
  Printf.printf
    "\n  (the teacher knows the goal and only quotes labels; strategies must\n\
    \   discover them - the gap is the price of interaction)\n"

(* ------------------------------------------------------------------ *)
(* E9: the price of disjunction - unions vs single predicates.         *)

let e9 ?(seeds = 6) () =
  section "E9"
    "Disjunctive extension - unions of joins vs the conjunctive learner";
  (* On the flights instance: the union goal of the demo narrative. *)
  let union_goal =
    [
      Partition.of_pairs 5 [ (F.to_, F.city) ];
      Partition.of_pairs 5 [ (F.airline, F.discount) ];
    ]
  in
  let o =
    Disjunctive.run ~oracle:(Disjunctive.oracle_of_union union_goal) F.instance
  in
  Printf.printf "  flights, goal %s:\n    %d questions -> %s\n\n"
    (Disjunctive.to_where F.schema union_goal)
    o.Disjunctive.interactions
    (Disjunctive.to_where F.schema o.Disjunctive.union);
  (* Single-predicate goals: the disjunctive learner still works but pays
     for the larger hypothesis space. *)
  let rows =
    List.map
      (fun (n, rank) ->
        let conj_total = ref 0 and disj_total = ref 0 in
        for seed = 1 to seeds do
          let inst =
            W.Synthetic.generate
              {
                W.Synthetic.n_attrs = n;
                n_tuples = 50;
                domain = max n 8;
                goal_rank = rank;
                seed;
              }
          in
          let goal = inst.W.Synthetic.goal in
          let conj =
            Session.run ~seed ~strategy:Strategy.lookahead_maximin
              ~oracle:(Oracle.of_goal goal) inst.W.Synthetic.relation
          in
          let disj =
            Disjunctive.run ~seed
              ~oracle:(Disjunctive.oracle_of_union [ goal ])
              inst.W.Synthetic.relation
          in
          conj_total := !conj_total + conj.Session.interactions;
          disj_total := !disj_total + disj.Disjunctive.interactions
        done;
        [
          Printf.sprintf "%d / %d" n rank;
          fmt_f (float_of_int !conj_total /. float_of_int seeds);
          fmt_f (float_of_int !disj_total /. float_of_int seeds);
        ])
      [ (4, 2); (5, 2); (6, 3) ]
  in
  table
    [ "attrs/rank"; "conjunctive learner"; "disjunctive learner" ]
    rows;
  Printf.printf
    "\n  (same single-predicate goal, same oracle: the union space cannot\n\
    \   exploit meet-closure, so the monotone learner needs more labels)\n"

let run_all () =
  e1 ();
  e2 ();
  e2b ();
  e3 ();
  e4 ();
  e4b ();
  e5 ();
  e7 ();
  e8 ();
  e9 ()
