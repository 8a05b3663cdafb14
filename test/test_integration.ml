(* Cross-library integration tests: the whole pipeline from raw relations
   through denormalisation, interactive inference, SQL rendering, SQL
   re-execution and result comparison; plus TUI rendering smoke tests and
   failure injection. *)

module P = Jim_partition.Partition
module V = Jim_relational.Value
module T = Jim_relational.Tuple0
module R = Jim_relational.Relation
module Schema = Jim_relational.Schema
module Sql = Jim_relational.Sql
module Csv = Jim_relational.Csv
module W = Jim_workloads
open Jim_core

let qtest ?(count = 30) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------------------------------------------------ *)
(* End-to-end: infer -> SQL -> execute -> compare with goal join.      *)

let infer_and_reexecute spec =
  let db = W.Tpch.generate ~seed:6 W.Tpch.tiny in
  match W.Denorm.task_of_names db spec with
  | Error e -> Alcotest.fail e
  | Ok task ->
    let o =
      Session.run ~strategy:Strategy.lookahead_maximin
        ~oracle:(W.Denorm.oracle task) task.W.Denorm.instance
    in
    Alcotest.(check bool) "converged" false o.Session.contradiction;
    let cross =
      P.restrict o.Session.query ~allowed:task.W.Denorm.cross_only
    in
    let q = Jquery.make task.W.Denorm.schema cross in
    let sql = Jquery.to_sql ~from:task.W.Denorm.sources q in
    (match Sql.exec db sql with
    | Error e -> Alcotest.fail ("re-execution failed: " ^ e)
    | Ok result ->
      let goal_result = W.Denorm.goal_join_result task in
      Alcotest.(check int) "same cardinality"
        (R.cardinality goal_result) (R.cardinality result);
      let sort r = List.sort T.compare (R.tuples r) in
      Alcotest.(check bool) "same contents" true
        (List.for_all2 T.equal (sort result) (sort goal_result)))

let test_pipeline_customer_orders () =
  infer_and_reexecute W.Tpch.fk_customer_orders

let test_pipeline_nation_chain () =
  infer_and_reexecute W.Tpch.fk_nation_chain

(* ------------------------------------------------------------------ *)
(* The printed SQL, re-executed through the oracle.                    *)

(* 2-3 NULL-free relations over a small int domain, so that random
   predicates select some rows, and a random predicate (TRUE included)
   over their product's attributes. *)
let gen_sql_case =
  QCheck.Gen.(
    let relation k arity =
      let schema = Schema.of_list (List.init arity (fun c -> (Printf.sprintf "a%d" c, V.Tint))) in
      map
        (R.of_rows ~name:(Printf.sprintf "r%d" k) schema)
        (list_size (int_bound 4) (list_repeat arity (map (fun v -> V.Int v) (int_bound 2))))
    in
    let* arities = int_range 2 3 >>= fun k -> list_repeat k (int_range 1 3) in
    let* rels = flatten_l (List.mapi relation arities) in
    let n = List.fold_left ( + ) 0 arities in
    let* pairs = list_size (int_bound 3) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    return (rels, P.of_pairs n pairs))

let sql_of (rels, pred) =
  Jquery.to_sql ~from:(List.map R.name rels) (Jquery.make (R.schema (R.product rels)) pred)

let rows r = List.map Array.to_list (R.tuples r)

let prop_sql_equals_satisfying =
  qtest ~count:300 "Sql.exec (to_sql q) = satisfying q"
    (QCheck.make
       ~print:(fun ((rels, _) as case) ->
         String.concat "\n"
           (sql_of case
           :: List.map
                (fun r -> R.name r ^ ": " ^ String.concat " " (List.map T.to_string (R.tuples r)))
                rels))
       gen_sql_case)
    (fun ((rels, pred) as case) ->
      match Sql.exec (Jim_relational.Database.of_relations rels) (sql_of case) with
      | Error e -> QCheck.Test.fail_report e
      | Ok got ->
        let want = R.satisfying pred (R.product rels) in
        Schema.equal (R.schema got) (R.schema want) && rows got = rows want)

(* On NULLs the two part ways: [Jquery.to_sql] prints SQL's [=], which a
   NULL-NULL pair fails, while the inferred predicate (like the
   signatures) equates NULL with NULL.  Exactly those rows drop out. *)
let test_sql_null_gap () =
  let r =
    R.of_rows ~name:"r"
      (Schema.of_list [ ("a", V.Tint); ("b", V.Tint); ("c", V.Tint) ])
      V.[
          [ Int 1; Int 1; Int 1 ];
          [ Null; Null; Int 1 ];
          [ Null; Int 1; Null ];
          [ Int 2; Int 2; Null ];
          [ Null; Null; Null ];
          [ Int 1; Int 2; Int 1 ];
        ]
  in
  let db = Jim_relational.Database.of_relations [ r ] in
  let check pred expected =
    let sql = sql_of ([ r ], pred) in
    let prod = R.product [ r ] in
    let null_null t =
      List.exists
        (fun (i, j) -> i < j && P.same pred i j && V.is_null t.(i) && V.is_null t.(j))
        (List.concat_map (fun i -> List.init 3 (fun j -> (i, j))) [ 0; 1; 2 ])
    in
    match Sql.exec db sql with
    | Error e -> Alcotest.fail e
    | Ok got ->
      let want = R.select (fun t -> not (null_null t)) (R.satisfying pred prod) in
      Alcotest.(check bool) (sql ^ ": satisfying minus NULL-NULL rows") true (rows got = rows want);
      Alcotest.(check int) (sql ^ ": rows") expected (R.cardinality got)
  in
  (* a = b holds on rows 0, 1, 3, 4 for the predicate, on 0 and 3 in SQL. *)
  check (P.of_pairs 3 [ (0, 1) ]) 2;
  check (P.of_pairs 3 [ (0, 1); (1, 2) ]) 1;
  check (P.of_pairs 3 [ (0, 2) ]) 2;
  check (P.bottom 3) 6;
  Alcotest.(check int) "the predicate itself keeps the NULL-NULL rows" 4
    (R.cardinality (R.satisfying (P.of_pairs 3 [ (0, 1) ]) r))

(* ------------------------------------------------------------------ *)
(* CSV road: dump the flights table, reload it, infer on the reload.   *)

let test_csv_to_inference () =
  let path = Filename.temp_file "jim_flights" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.save W.Flights.instance path;
      match Csv.load_auto ~name:"packages" path with
      | Error e -> Alcotest.fail e
      | Ok rel ->
        let o =
          Session.run ~strategy:Strategy.lookahead_entropy
            ~oracle:(Oracle.of_goal W.Flights.q2) rel
        in
        Alcotest.(check bool) "Q2 recovered from CSV reload" true
          (P.equal o.Session.query W.Flights.q2))

(* ------------------------------------------------------------------ *)
(* The GAV-mapping rendering stays parseable and faithful.             *)

let test_gav_rendering () =
  let db = W.Tpch.generate ~seed:6 W.Tpch.tiny in
  match W.Denorm.task_of_names db W.Tpch.fk_customer_orders with
  | Error e -> Alcotest.fail e
  | Ok task ->
    let q = Jquery.make task.W.Denorm.schema task.W.Denorm.goal in
    let gav = Jquery.to_gav ~head:"m" q in
    (* Shared variable between the two atoms: x0 appears twice. *)
    Alcotest.(check bool) "head present" true
      (String.length gav > 0 && String.sub gav 0 2 = "m(");
    let occurrences needle hay =
      let n = String.length needle and h = String.length hay in
      let rec go i acc =
        if i + n > h then acc
        else if String.sub hay i n = needle then go (i + 1) (acc + 1)
        else go (i + 1) acc
      in
      go 0 0
    in
    Alcotest.(check bool) "join variable shared" true
      (occurrences "x0" gav >= 3)

(* ------------------------------------------------------------------ *)
(* Failure injection: noisy users and session resilience.              *)

let test_noisy_user_state_contradiction () =
  (* With manual (non-engine-filtered) labelling, a noisy user does hit
     contradictions, and State reports them instead of corrupting. *)
  let noisy =
    Oracle.noisy ~seed:11 ~flip_probability:0.45
      (Oracle.of_goal W.Flights.q2)
  in
  let hit = ref false in
  for seed = 1 to 20 do
    ignore seed;
    let st = ref (State.create 5) in
    (try
       for k = 1 to 12 do
         let sg = W.Flights.signature k in
         match State.add !st (Oracle.label noisy sg) sg with
         | Ok st' -> st := st'
         | Error `Contradiction -> begin
           hit := true;
           raise Exit
         end
       done
     with Exit -> ())
  done;
  Alcotest.(check bool) "contradiction eventually reported" true !hit

let prop_mislabelled_runs_still_terminate =
  qtest ~count:30 "noisy runs terminate within class budget"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 500))
    (fun seed ->
      let inst =
        W.Synthetic.generate
          { W.Synthetic.default with W.Synthetic.n_tuples = 40; seed }
      in
      let noisy =
        Oracle.noisy ~seed ~flip_probability:0.3
          (Oracle.of_goal inst.W.Synthetic.goal)
      in
      let o =
        Session.run ~seed ~strategy:Strategy.local_lex ~oracle:noisy
          inst.W.Synthetic.relation
      in
      o.Session.interactions
      <= Array.length (fst (Sigclass.classes inst.W.Synthetic.relation)))

(* ------------------------------------------------------------------ *)
(* TUI smoke tests (rendering is pure string production).              *)

let test_render_table_plain () =
  Jim_tui.Ansi.enabled := false;
  let s = Jim_tui.Render.table W.Flights.instance in
  Alcotest.(check bool) "has header" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> String.length l > 0 && l.[0] = '|') lines);
  (* 12 data rows + header + 3 separators + trailing -> >= 16 lines. *)
  Alcotest.(check bool) "row count" true
    (List.length (String.split_on_char '\n' s) >= 16)

let test_render_marks_and_strip () =
  Jim_tui.Ansi.enabled := true;
  let marks =
    Array.init 12 (fun i ->
        if i = 2 then Jim_tui.Render.Labeled_pos
        else if i = 3 then Jim_tui.Render.Grayed
        else Jim_tui.Render.Unlabeled)
  in
  let s = Jim_tui.Render.table ~marks W.Flights.instance in
  let stripped = Jim_tui.Ansi.strip s in
  Alcotest.(check bool) "ansi codes present when enabled" true
    (String.length s > String.length stripped);
  Jim_tui.Ansi.enabled := false;
  let plain = Jim_tui.Render.table ~marks W.Flights.instance in
  Alcotest.(check string) "strip = disabled rendering" plain stripped

let test_barchart () =
  let chart =
    Jim_tui.Barchart.render
      (Jim_tui.Barchart.of_counts [ ("a", 10); ("b", 5); ("no-bar", 0) ])
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' chart)
  in
  Alcotest.(check int) "three bars" 3 (List.length lines);
  let count_hashes l =
    String.fold_left (fun acc c -> if c = '#' then acc + 1 else acc) 0 l
  in
  (match lines with
  | [ la; lb; lz ] ->
    Alcotest.(check int) "a full width" 40 (count_hashes la);
    Alcotest.(check int) "b half width" 20 (count_hashes lb);
    Alcotest.(check int) "zero empty" 0 (count_hashes lz)
  | _ -> Alcotest.fail "expected three lines");
  Alcotest.(check bool) "negative rejected" true
    (try
       ignore
         (Jim_tui.Barchart.render
            [ { Jim_tui.Barchart.label = "x"; value = -1.0; annotation = "" } ]);
       false
     with Invalid_argument _ -> true)

let test_benefit_chart_savings () =
  let s = Jim_tui.Barchart.benefit ~baseline:("all", 12) [ ("jim", 3) ] in
  Alcotest.(check bool) "-75% shown" true
    (let needle = "-75%" in
     let rec contains i =
       i + String.length needle <= String.length s
       && (String.sub s i (String.length needle) = needle || contains (i + 1))
     in
     contains 0)

let test_progress_panel () =
  let eng = Session.create W.Flights.instance in
  let panel = Jim_tui.Progress.panel (Stats.of_engine eng) in
  Alcotest.(check bool) "panel renders" true (String.length panel > 0)

let test_prompt_scripted () =
  let src = Jim_tui.Prompt.of_list [ "junk"; "Y"; "n"; "q" ] in
  let devnull = open_out "/dev/null" in
  Fun.protect
    ~finally:(fun () -> close_out devnull)
    (fun () ->
      Alcotest.(check bool) "junk then yes" true
        (Jim_tui.Prompt.ask_label ~out:devnull src "?" = Jim_tui.Prompt.Yes);
      Alcotest.(check bool) "no" true
        (Jim_tui.Prompt.ask_label ~out:devnull src "?" = Jim_tui.Prompt.No);
      Alcotest.(check bool) "quit" true
        (Jim_tui.Prompt.ask_label ~out:devnull src "?" = Jim_tui.Prompt.Quit);
      Alcotest.(check bool) "eof is quit" true
        (Jim_tui.Prompt.ask_label ~out:devnull src "?" = Jim_tui.Prompt.Quit))

(* ------------------------------------------------------------------ *)
(* Engine view consistency: grayed rows are exactly the non-informative
   ones.                                                               *)

let test_engine_view_marks () =
  Jim_tui.Ansi.enabled := false;
  let eng = Session.create W.Flights.instance in
  (match
     Session.answer eng
       (Option.get (Sigclass.find (Session.classes eng) (W.Flights.signature 12)))
       State.Pos
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unexpected");
  let view = Jim_tui.Render.engine_view eng W.Flights.instance in
  (* (3), (4), (7), (12) decided -> grayed '.' marks; count them. *)
  let dots =
    String.fold_left (fun acc c -> if c = '.' then acc + 1 else acc) 0 view
  in
  Alcotest.(check int) "four grayed rows" 4 dots

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "customer-orders end to end" `Quick
            test_pipeline_customer_orders;
          Alcotest.test_case "nation chain end to end" `Quick
            test_pipeline_nation_chain;
          Alcotest.test_case "csv -> inference" `Quick test_csv_to_inference;
          Alcotest.test_case "gav rendering" `Quick test_gav_rendering;
          prop_sql_equals_satisfying;
          Alcotest.test_case "to_sql on NULLs" `Quick test_sql_null_gap;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "noisy user contradiction surfaces" `Quick
            test_noisy_user_state_contradiction;
          prop_mislabelled_runs_still_terminate;
        ] );
      ( "tui",
        [
          Alcotest.test_case "plain table" `Quick test_render_table_plain;
          Alcotest.test_case "marks and strip" `Quick
            test_render_marks_and_strip;
          Alcotest.test_case "barchart" `Quick test_barchart;
          Alcotest.test_case "benefit savings" `Quick
            test_benefit_chart_savings;
          Alcotest.test_case "progress panel" `Quick test_progress_panel;
          Alcotest.test_case "scripted prompt" `Quick test_prompt_scripted;
          Alcotest.test_case "engine view marks" `Quick test_engine_view_marks;
        ] );
    ]
