module Partition = Jim_partition.Partition
module Pairs = Jim_partition.Pairs
module Relation = Jim_relational.Relation

type cls = { sg : Partition.t; bits : Pairs.t; rows : int list; card : int }

let group sigs =
  let tbl = Partition.Tbl.create 64 in
  (* Latest-first: (signature, its rows latest-first). *)
  let order = ref [] in
  List.iteri
    (fun i sg ->
      match Partition.Tbl.find_opt tbl sg with
      | Some rows -> rows := i :: !rows
      | None ->
        let rows = ref [ i ] in
        Partition.Tbl.add tbl sg rows;
        order := (sg, rows) :: !order)
    sigs;
  let mk (sg, rows) =
    let rows = List.rev !rows in
    { sg; bits = Pairs.of_partition sg; rows; card = List.length rows }
  in
  (* rev_map restores first-occurrence order. *)
  Array.of_list (List.rev_map mk !order)

let of_signatures sigs = group sigs

(* Rows grouped by pair words built straight from each tuple's values,
   with [Value.compare] = 0 as equality — the one [Hashtbl] keys use, so
   the classes are those of [Tuple0.signature]: [Null] = [Null], [nan] =
   [nan], [0.0] = [-0.0].  First-occurrence order, as in [group]. *)
let classes r =
  let same a b = Jim_relational.Value.compare a b = 0 in
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  Relation.iteri
    (fun i t ->
      let bits = Pairs.of_values same t in
      match Hashtbl.find_opt tbl bits with
      | Some rows -> rows := i :: !rows
      | None ->
        let rows = ref [ i ] in
        Hashtbl.add tbl bits rows;
        order := (bits, rows) :: !order)
    r;
  let n = Relation.arity r in
  let mk (bits, rows) =
    let rows = List.rev !rows in
    { sg = Pairs.to_partition n bits; bits; rows; card = List.length rows }
  in
  Array.of_list (List.rev_map mk !order)

let singletons r =
  Array.mapi
    (fun i sg -> { sg; bits = Pairs.of_partition sg; rows = [ i ]; card = 1 })
    (Relation.signatures r)

let representative c = match c.rows with [] -> assert false | r :: _ -> r

let total_rows cs = Array.fold_left (fun acc c -> acc + c.card) 0 cs

let find cs sg =
  let n = Array.length cs in
  let rec go i =
    if i >= n then None
    else if Partition.equal cs.(i).sg sg then Some i
    else go (i + 1)
  in
  go 0
