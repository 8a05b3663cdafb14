module Partition = Jim_partition.Partition
module Lattice = Jim_partition.Lattice

module PairSet = Set.Make (struct
  type t = int * int

  let compare = Stdlib.compare
end)

(* All minimal hitting sets of [sets] (each a PairSet).  Classic
   branch-and-prune: branch on the elements of the first set not yet hit,
   then discard non-minimal results. *)
let minimal_hitting_sets sets =
  let rec go chosen remaining acc =
    match remaining with
    | [] -> PairSet.of_list chosen :: acc
    | d :: rest ->
      if List.exists (fun e -> PairSet.mem e d) chosen then
        go chosen rest acc
      else
        PairSet.fold (fun e acc -> go (e :: chosen) rest acc) d acc
  in
  let candidates = go [] sets [] in
  List.filter
    (fun h ->
      not
        (List.exists
           (fun h' -> (not (PairSet.equal h h')) && PairSet.subset h' h)
           candidates))
    candidates
  |> List.sort_uniq PairSet.compare

let most_general (st : State.t) =
  let n = st.State.n in
  match st.State.negatives with
  | [] -> [ Partition.bottom n ]
  | negs ->
    let s_pairs = PairSet.of_list (Partition.pairs st.State.s) in
    let diffs =
      List.map
        (fun u -> PairSet.diff s_pairs (PairSet.of_list (Partition.pairs u)))
        negs
    in
    if List.exists PairSet.is_empty diffs then
      (* A negative swallowed s: contradiction, empty version space. *)
      []
    else
      minimal_hitting_sets diffs
      |> List.map (fun h -> Partition.of_pairs n (PairSet.elements h))
      |> Lattice.minimal_elements
