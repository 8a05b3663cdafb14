module Partition = Jim_partition.Partition
module Schema = Jim_relational.Schema
module Relation = Jim_relational.Relation
module Tuple0 = Jim_relational.Tuple0

type t = { pred : Partition.t; schema : Schema.t }

let make schema pred =
  if Partition.size pred <> Schema.arity schema then
    invalid_arg "Jquery.make: predicate size differs from schema arity";
  { pred; schema }

let atoms q =
  let names = Schema.names q.schema in
  List.concat_map
    (fun block ->
      match block with
      | [] | [ _ ] -> []
      | r :: rest -> List.map (fun m -> (names.(r), names.(m))) rest)
    (Partition.nontrivial_blocks q.pred)

let to_where q =
  match atoms q with
  | [] -> "TRUE"
  | ats -> String.concat " AND " (List.map (fun (a, b) -> a ^ " = " ^ b) ats)

let to_sql ~from q =
  Printf.sprintf "SELECT * FROM %s WHERE %s" (String.concat ", " from)
    (to_where q)

let to_gav ~head q =
  let names = Schema.names q.schema in
  (* Group attribute positions by the relation part of their qualified
     name, preserving order; unqualified attributes form one body atom
     over the whole schema. *)
  let rel_of name =
    match String.index_opt name '.' with
    | None -> "r"
    | Some i -> String.sub name 0 i
  in
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun nm ->
      let r = rel_of nm in
      if not (Hashtbl.mem tbl r) then begin
        Hashtbl.add tbl r ();
        order := r :: !order
      end)
    names;
  let rels = List.rev !order in
  let var i = Printf.sprintf "x%d" (Partition.rep q.pred i) in
  let body_atom r =
    let vars = ref [] in
    Array.iteri (fun i nm -> if rel_of nm = r then vars := var i :: !vars) names;
    Printf.sprintf "%s(%s)" r (String.concat ", " (List.rev !vars))
  in
  let head_vars = List.init (Array.length names) var |> List.sort_uniq compare in
  Printf.sprintf "%s(%s) :- %s" head
    (String.concat ", " head_vars)
    (String.concat ", " (List.map body_atom rels))

let eval q rel = Relation.satisfying q.pred rel

let selects q t = Tuple0.satisfies q.pred t

let equivalent_on a b rel =
  Relation.equal_contents (eval a rel) (eval b rel)

let pp fmt q = Format.pp_print_string fmt (to_where q)
