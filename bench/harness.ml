(* Shared machinery for the experiment reproductions: tabular output and
   averaged closed-loop runs. *)

module Partition = Jim_partition.Partition
module Relation = Jim_relational.Relation
module W = Jim_workloads
open Jim_core

let hrule width = print_endline (String.make width '-')

let section id title =
  print_newline ();
  hrule 72;
  Printf.printf "%s  %s\n" id title;
  hrule 72

let check name ok =
  Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name;
  ok

let table = Jim_bench.table

(* Average interactions of [strategy] against [goal] on [instance] over
   [seeds] session seeds (the seed only matters for randomised
   strategies, but averaging everything keeps columns comparable). *)
let avg_interactions ?(seeds = 5) ~strategy ~goal instance =
  let oracle = Oracle.of_goal goal in
  let total = ref 0 in
  for seed = 1 to seeds do
    let o = Session.run ~seed ~strategy ~oracle instance in
    assert (not o.Session.contradiction);
    total := !total + o.Session.interactions
  done;
  float_of_int !total /. float_of_int seeds

let strategies_with_optimal_for instance =
  (* The optimal yardstick only joins when the instance is tiny. *)
  let base = Strategy.all in
  if Relation.cardinality instance <= 16 then
    base @ [ Strategy.optimal ~max_states:500_000 () ]
  else base

let fmt_f f = Printf.sprintf "%.1f" f
