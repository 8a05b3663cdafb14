(* The engine at the paper's scale: the cold first question of a
   lookahead-entropy session on synthetic instances of 194, 1,056 and
   2,447 signature classes (6 x 1,600 domain 6, 8 x 1,600 domain 8,
   9 x 3,200 domain 9; goal rank 2, seed 1).  Each row times one
   [Session.question] on a fresh engine and counts its meets and
   classifications; the class it picks is printed so two builds can be
   checked for the same question.  Printed, not gated. *)

module W = Jim_workloads
open Jim_core

let instances = [ (6, 1600, 6); (8, 1600, 8); (9, 3200, 9) ]

let row (n_attrs, n_tuples, domain) =
  let inst =
    W.Synthetic.generate
      { W.Synthetic.n_attrs; n_tuples; domain; goal_rank = 2; seed = 1 }
  in
  let eng = Session.create inst.W.Synthetic.relation in
  let before = Metrics.snapshot () in
  let t0 = Metrics.now_ns () in
  let pick =
    Session.question eng Strategy.lookahead_entropy (Random.State.make [| 1 |])
  in
  let ms = float_of_int (Metrics.now_ns () - t0) /. 1e6 in
  let d = Metrics.diff (Metrics.snapshot ()) before in
  [
    Printf.sprintf "%d x %d, d%d" n_attrs n_tuples domain;
    string_of_int (Array.length (Session.classes eng));
    Printf.sprintf "%.1f" ms;
    string_of_int d.Metrics.meets;
    string_of_int d.Metrics.classify_calls;
    Option.fold ~none:"-" ~some:string_of_int pick;
  ]

let run ~rows =
  Harness.section "FIRST PICK"
    "cold lookahead-entropy first question by class count";
  Jim_bench.table
    [ "instance"; "classes"; "first-pick ms"; "meets"; "classify"; "pick" ]
    (List.map row (List.filteri (fun i _ -> i < rows) instances))
