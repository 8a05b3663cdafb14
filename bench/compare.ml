(* The strategy-scorer comparison harness: one closed-loop run per
   strategy on a fixed synthetic workload, with per-strategy perf
   counters (Metrics) and wall time.  Prints a table and writes the
   machine-readable BENCH_strategies.json (schema documented in the
   README). *)

module B = Jim_bench
module W = Jim_workloads
open Jim_core

type row = {
  name : string;
  kind : string;
  interactions_avg : float;
  questions : int;
  wall_s : float;
  snap : Metrics.snapshot;
}

let kind_string = function
  | `Random -> "random"
  | `Local -> "local"
  | `Lookahead -> "lookahead"

let default_workload =
  (* n_attrs, n_tuples, goal_rank, seeds *)
  (6, 200, 2, 3)

let measure ~n_attrs ~n_tuples ~goal_rank ~seeds strat =
  Metrics.reset ();
  let t0 = Unix.gettimeofday () in
  let interactions = ref 0 and questions = ref 0 in
  for seed = 1 to seeds do
    let inst =
      W.Synthetic.generate
        {
          W.Synthetic.n_attrs;
          n_tuples;
          domain = max n_attrs 8;
          goal_rank;
          seed;
        }
    in
    let oracle = Oracle.of_goal inst.W.Synthetic.goal in
    let o = Session.run ~seed ~strategy:strat ~oracle inst.W.Synthetic.relation in
    assert (not o.Session.contradiction);
    interactions := !interactions + o.Session.interactions;
    questions := !questions + List.length o.Session.events
  done;
  let wall = Unix.gettimeofday () -. t0 in
  {
    name = strat.Strategy.name;
    kind = kind_string strat.Strategy.kind;
    interactions_avg = float_of_int !interactions /. float_of_int seeds;
    questions = !questions;
    wall_s = wall;
    snap = Metrics.snapshot ();
  }

let per_question_ms r =
  if r.questions = 0 then 0.0 else r.wall_s *. 1e3 /. float_of_int r.questions

let json_row r =
  [
    ("name", B.S r.name);
    ("kind", B.S r.kind);
    ("interactions_avg", B.F3 r.interactions_avg);
    ("questions", B.D r.questions);
    ("wall_s", B.F6 r.wall_s);
    ("per_question_ms", B.F6 (per_question_ms r));
    ("metrics", B.Raw (Metrics.to_json r.snap));
  ]

let write_json ~path ~workload rows =
  let n_attrs, n_tuples, goal_rank, seeds = workload in
  B.write_json B.strategies ~path
    ~header:
      [
        ( "workload",
          B.Raw
            (Printf.sprintf
               "{\"n_attrs\":%d,\"n_tuples\":%d,\"goal_rank\":%d,\"seeds\":%d}"
               n_attrs n_tuples goal_rank seeds) );
      ]
    (List.map json_row rows)

let run ?(out = "BENCH_strategies.json") ?(workload = default_workload) () =
  let n_attrs, n_tuples, goal_rank, seeds = workload in
  Harness.section "COMPARE"
    "strategy scorer: interactions, pick latency, cache counters";
  Printf.printf
    "  (synthetic workload: %d attrs, %d tuples, goal rank %d, %d seeds)\n\n"
    n_attrs n_tuples goal_rank seeds;
  let strategies = Strategy.all @ [ Strategy.lookahead2 () ] in
  let rows =
    List.map (measure ~n_attrs ~n_tuples ~goal_rank ~seeds) strategies
  in
  B.table
    [
      "strategy"; "interactions"; "ms/question"; "meets"; "classify";
      "cache hit%";
    ]
    (List.map
       (fun r ->
         [
           r.name;
           Harness.fmt_f r.interactions_avg;
           Printf.sprintf "%.3f" (per_question_ms r);
           string_of_int r.snap.Metrics.meets;
           string_of_int r.snap.Metrics.classify_calls;
           Printf.sprintf "%.0f" (100.0 *. Metrics.hit_rate r.snap);
         ])
       rows);
  write_json ~path:out ~workload rows;
  Printf.printf "\n  wrote %s\n" out;
  rows
