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

module Bits = Hashtbl.Make (Pairs)

(* Rows grouped by pair words built straight from each tuple's values,
   with [Value.compare] = 0 as equality — the one [Hashtbl] keys use, so
   the classes are those of [Tuple0.signature]: [Null] = [Null], [nan] =
   [nan], [0.0] = [-0.0].  First-occurrence order, as in [group]. *)
let classes r =
  let same a b = Jim_relational.Value.compare a b = 0 in
  (* A row of ints (most rows of most instances) compares as ints. *)
  let ints = Array.make (Relation.arity r) 0 in
  let bits t =
    let j = ref 0 in
    while
      !j < Array.length t
      &&
      match t.(!j) with
      | Jim_relational.Value.Int x ->
        ints.(!j) <- x;
        true
      | _ -> false
    do
      incr j
    done;
    if !j = Array.length t then Pairs.of_ints ints else Pairs.of_values same t
  in
  (* Each row's class index, classes numbered as first met. *)
  let tbl = Bits.create 64 in
  let row_class = Array.make (Relation.cardinality r) 0 in
  let firsts = ref [] in
  Relation.iteri
    (fun i t ->
      let bits = bits t in
      match Bits.find tbl bits with
      | c -> row_class.(i) <- c
      | exception Not_found ->
        let c = Bits.length tbl in
        Bits.add tbl bits c;
        row_class.(i) <- c;
        firsts := bits :: !firsts)
    r;
  let k = Bits.length tbl in
  let rows = Array.make k [] and cards = Array.make k 0 in
  for i = Array.length row_class - 1 downto 0 do
    let c = row_class.(i) in
    rows.(c) <- i :: rows.(c);
    cards.(c) <- cards.(c) + 1
  done;
  let n = Relation.arity r in
  ( Array.mapi
      (fun c bits -> { sg = Pairs.to_partition n bits; bits; rows = rows.(c); card = cards.(c) })
      (Array.of_list (List.rev !firsts)),
    row_class )

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
