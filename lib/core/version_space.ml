module Partition = Jim_partition.Partition
module Lattice = Jim_partition.Lattice
module Penum = Jim_partition.Penum

let count (st : State.t) =
  Lattice.down_minus_count ~top:st.s ~excluded:st.negatives

let is_singleton_on st classes =
  Array.for_all
    (fun (c : Sigclass.cls) -> State.classify_bits st c.bits <> State.Informative)
    classes

let enumerate (st : State.t) =
  if Penum.count_below st.s > 1e6 then
    invalid_arg "Version_space.enumerate: ideal too large";
  let out = ref [] in
  Penum.iter_below st.s (fun q -> if State.consistent st q then out := q :: !out);
  List.rev !out

let mem = State.consistent

let equivalence_classes st classes =
  let preds = enumerate st in
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun q ->
      let bitmap =
        Array.map
          (fun (c : Sigclass.cls) -> Partition.refines q c.sg)
          classes
      in
      let key = Array.to_list bitmap in
      match Hashtbl.find_opt tbl key with
      | Some (bm, qs) -> Hashtbl.replace tbl key (bm, q :: qs)
      | None ->
        Hashtbl.add tbl key (bitmap, [ q ]);
        order := key :: !order)
    preds;
  List.rev_map
    (fun key ->
      let bm, qs = Hashtbl.find tbl key in
      (bm, List.rev qs))
    !order
