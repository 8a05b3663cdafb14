(* Schema-mapping inference by example (Section 1: "our join queries can
   be eventually seen as simple GAV mappings", citing EIRENE): a
   non-expert user labels tuples of the product of two source relations
   and JIM emits the GAV mapping populating the target relation.

   Run with: dune exec examples/schema_mapping.exe *)

module W = Jim_workloads
module Relation = Jim_relational.Relation
open Jim_core

let () =
  let db = W.Tpch.generate ~seed:9 W.Tpch.tiny in
  match
    W.Denorm.task_of_names ~sample:250 ~seed:17 db W.Tpch.fk_customer_orders
  with
  | Error e -> failwith e
  | Ok task ->
    let oracle = W.Denorm.oracle task in
    let outcome =
      Session.run ~strategy:Strategy.lookahead_maximin ~oracle
        task.W.Denorm.instance
    in
    let cross =
      Jim_partition.Partition.restrict outcome.Session.query
        ~allowed:task.W.Denorm.cross_only
    in
    let q = Jquery.make task.W.Denorm.schema cross in

    Printf.printf "Labelled examples: %d\n\n" outcome.Session.interactions;
    Printf.printf "Inferred GAV mapping:\n  %s\n\n"
      (Jquery.to_gav ~head:"customer_orders" q);
    Printf.printf "Equivalent SQL:\n  %s\n\n"
      (Jquery.to_sql ~from:task.W.Denorm.sources q);

    (* Materialise the target relation by running the SQL through the
       equi-join SQL oracle and check it against the goal join. *)
    let sql = Jquery.to_sql ~from:task.W.Denorm.sources q in
    (match Jim_relational.Sql.exec db sql with
    | Error e -> failwith e
    | Ok result ->
      let goal_result = W.Denorm.goal_join_result task in
      Printf.printf "Target instance: %d tuples (goal join: %d)\n"
        (Relation.cardinality result)
        (Relation.cardinality goal_result);
      Printf.printf "Contents match goal join: %b\n"
        (List.length (Relation.tuples result)
         = List.length (Relation.tuples goal_result)
        && List.for_all2 Jim_relational.Tuple0.equal
             (List.sort Jim_relational.Tuple0.compare (Relation.tuples result))
             (List.sort Jim_relational.Tuple0.compare
                (Relation.tuples goal_result))))
