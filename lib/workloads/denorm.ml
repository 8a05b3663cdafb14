module Partition = Jim_partition.Partition
module Schema = Jim_relational.Schema
module Relation = Jim_relational.Relation
module Database = Jim_relational.Database

type task = {
  db : Database.t;
  sources : string list;
  instance : Relation.t;
  schema : Schema.t;
  goal : Partition.t;
  cross_only : (int * int) -> bool;
}

let ( let* ) = Result.bind

let resolve_relations db names =
  List.fold_left
    (fun acc name ->
      let* acc = acc in
      match Database.find db name with
      | Some r -> Ok (r :: acc)
      | None -> Error (Printf.sprintf "unknown relation %S" name))
    (Ok []) names
  |> Result.map List.rev

let full_product = function
  | [] -> Error "empty relation list"
  | rels -> (
    match Relation.product rels with
    | prod -> Ok prod
    | exception Invalid_argument _ ->
      Error "duplicate relation name in product: use distinct names")

let product_instance ?sample ?seed db names =
  let* rels = resolve_relations db names in
  let* prod, schema =
    Result.map (fun p -> (p, Relation.schema p)) (full_product rels)
  in
  let instance =
    match sample with
    | None -> prod
    | Some k -> Relation.sample ?seed k prod
  in
  Ok (instance, schema)

(* Attribute position -> source relation index, from the qualified
   product schema built over [names]. *)
let relation_of_position rels =
  let spans =
    List.map (fun r -> Schema.arity (Relation.schema r)) rels
  in
  let bounds = Array.of_list spans in
  fun pos ->
    let rec go i acc =
      if i >= Array.length bounds then
        invalid_arg "Denorm: position out of range"
      else if pos < acc + bounds.(i) then i
      else go (i + 1) (acc + bounds.(i))
    in
    go 0 0

let task_of_names ?sample ?seed db (names, atoms) =
  let* rels = resolve_relations db names in
  let* instance, schema = product_instance ?sample ?seed db names in
  let n = Schema.arity schema in
  let* pairs =
    List.fold_left
      (fun acc (a, b) ->
        let* acc = acc in
        match (Schema.find schema a, Schema.find schema b) with
        | Some i, Some j -> Ok ((i, j) :: acc)
        | None, _ -> Error (Printf.sprintf "unknown attribute %S" a)
        | _, None -> Error (Printf.sprintf "unknown attribute %S" b))
      (Ok []) atoms
  in
  let goal = Partition.of_pairs n pairs in
  let rel_of = relation_of_position rels in
  let cross_only (i, j) = rel_of i <> rel_of j in
  Ok { db; sources = names; instance; schema; goal; cross_only }

let goal_join_result task =
  match resolve_relations task.db task.sources with
  | Error _ -> assert false (* sources validated at construction *)
  | Ok rels -> (
    match full_product rels with
    | Error _ -> assert false
    | Ok prod -> Relation.satisfying task.goal prod)

let oracle task = Jim_core.Oracle.of_goal task.goal
