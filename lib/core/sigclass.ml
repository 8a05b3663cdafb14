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

let classes r = group (Array.to_list (Relation.signatures r))

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
