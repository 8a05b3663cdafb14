(* The benchmark harness: one experiment per figure/claim of the paper
   (E1-E5, printed tables) and the E6 latency micro-benchmarks (bechamel,
   one Test.make per measured table).

   Run with: dune exec bench/main.exe
   Pass --skip-latency to run only the interaction-count experiments,
   --quick for the CI smoke run (the strategy-scorer compare harness,
   which also writes BENCH_strategies.json, and the first two first-pick
   rows). *)

module W = Jim_workloads
open Jim_core
open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* E6: per-session and per-question latency vs instance size.          *)

let synthetic_instance n_tuples =
  W.Synthetic.generate
    {
      W.Synthetic.n_attrs = 6;
      n_tuples;
      domain = 8;
      goal_rank = 2;
      seed = 42;
    }

let session_test strategy =
  (* One Test.make (indexed by instance size) per strategy = per row of
     the latency table: full inference session, question selection
     included. *)
  Test.make_indexed
    ~name:("session/" ^ strategy.Strategy.name)
    ~args:[ 100; 400; 1600 ]
    (fun n_tuples ->
      let inst = synthetic_instance n_tuples in
      let oracle = Oracle.of_goal inst.W.Synthetic.goal in
      Staged.stage (fun () ->
          let o =
            Session.run ~strategy ~oracle inst.W.Synthetic.relation
          in
          assert (not o.Session.contradiction)))

let classes_test =
  (* Signature-class extraction: the preprocessing cost over raw tuples. *)
  Test.make_indexed ~name:"classes" ~args:[ 100; 1000; 10000 ]
    (fun n_tuples ->
      let inst = synthetic_instance n_tuples in
      Staged.stage (fun () ->
          ignore (fst (Sigclass.classes inst.W.Synthetic.relation))))

let grouping_ablation_test =
  (* DESIGN.md calls signature-class grouping the key engineering trick:
     run the same session over grouped classes vs one-class-per-row. *)
  Test.make_indexed ~name:"session-grouping/lookahead-maximin"
    ~fmt:"%s:%d" ~args:[ 0; 1 ]
    (fun grouped ->
      let inst = synthetic_instance 800 in
      let oracle = Oracle.of_goal inst.W.Synthetic.goal in
      let classes =
        if grouped = 1 then fst (Sigclass.classes inst.W.Synthetic.relation)
        else Sigclass.singletons inst.W.Synthetic.relation
      in
      Staged.stage (fun () ->
          ignore
            (Session.run_classes ~strategy:Strategy.lookahead_maximin ~oracle
               ~n:6 classes)))

let question_test strategy =
  (* A single question selection from a half-informed state. *)
  Test.make_indexed
    ~name:("question/" ^ strategy.Strategy.name)
    ~args:[ 400; 1600 ]
    (fun n_tuples ->
      let inst = synthetic_instance n_tuples in
      let eng = Session.create inst.W.Synthetic.relation in
      let oracle = Oracle.of_goal inst.W.Synthetic.goal in
      let rng = Random.State.make [| 1 |] in
      (* Absorb two answers so the state is neither empty nor final. *)
      for _ = 1 to 2 do
        match Session.question eng Strategy.local_lex rng with
        | Some ci ->
          let sg = (Session.classes eng).(ci).Sigclass.sg in
          (match Session.answer eng ci (Oracle.label oracle sg) with
          | Ok () -> ()
          | Error _ -> assert false)
        | None -> ()
      done;
      Staged.stage (fun () -> ignore (Session.question eng strategy rng)))

let benchmark test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances test in
  Analyze.all ols Instance.monotonic_clock raw

let print_results results =
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> e
        | _ -> nan
      in
      rows := (name, est) :: !rows)
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "  %-40s %s\n" name pretty)
    rows

let e6 () =
  Harness.section "E6" "Latency: inference cost vs instance size (bechamel)";
  print_endline "  (monotonic-clock OLS estimates; lower is better)\n";
  let tests =
    [ classes_test; grouping_ablation_test ]
    @ List.map session_test
        [ Strategy.local_lex; Strategy.lookahead_maximin; Strategy.lookahead_entropy ]
    @ List.map question_test
        [ Strategy.local_lex; Strategy.lookahead_maximin; Strategy.lookahead_entropy ]
  in
  List.iter (fun t -> print_results (benchmark t)) tests

let () =
  let skip_latency = Array.mem "--skip-latency" Sys.argv in
  let quick = Jim_bench.quick () in
  if quick then begin
    ignore (Compare.run ~workload:(5, 80, 2, 2) ());
    First_pick.run ~rows:2
  end
  else begin
    Experiments.run_all ();
    ignore (Compare.run ());
    First_pick.run ~rows:3;
    if not skip_latency then e6 ()
  end;
  Harness.section "DONE" "all experiments executed";
  print_newline ()
