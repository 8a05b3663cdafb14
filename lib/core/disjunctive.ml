module Partition = Jim_partition.Partition
module Lattice = Jim_partition.Lattice
module Relation = Jim_relational.Relation
module Tuple0 = Jim_relational.Tuple0
module Schema = Jim_relational.Schema

type union = Partition.t list

let selects u sg = List.exists (fun d -> Partition.refines d sg) u

let eval u rel =
  Relation.select (fun t -> selects u (Tuple0.signature t)) rel

let normalise u = Lattice.minimal_elements u

let to_where schema u =
  let names = Schema.names schema in
  let disjunct d =
    let atoms =
      List.concat_map
        (fun block ->
          match block with
          | [] | [ _ ] -> []
          | r :: rest -> List.map (fun m -> names.(r) ^ " = " ^ names.(m)) rest)
        (Partition.nontrivial_blocks d)
    in
    match atoms with
    | [] -> "TRUE"
    | _ -> String.concat " AND " atoms
  in
  match normalise u with
  | [] -> "FALSE"
  | [ d ] -> disjunct d
  | ds -> String.concat " OR " (List.map (fun d -> "(" ^ disjunct d ^ ")") ds)

type state = {
  n : int;
  minimal_pos : union;
  maximal_neg : union;
}

let create n = { n; minimal_pos = []; maximal_neg = [] }

let classify st sg =
  if List.exists (fun p -> Partition.refines p sg) st.minimal_pos then
    State.Certain_pos
  else if List.exists (fun u -> Partition.refines sg u) st.maximal_neg then
    State.Certain_neg
  else State.Informative

let add st label sg =
  if Partition.size sg <> st.n then
    invalid_arg "Disjunctive.add: arity mismatch";
  match (label, classify st sg) with
  | State.Pos, State.Certain_neg | State.Neg, State.Certain_pos ->
    Error `Contradiction
  | State.Pos, _ ->
    Ok { st with minimal_pos = Lattice.minimal_elements (sg :: st.minimal_pos) }
  | State.Neg, _ ->
    Ok { st with maximal_neg = Lattice.maximal_elements (sg :: st.maximal_neg) }

let result st = st.minimal_pos

type outcome = {
  union : union;
  interactions : int;
  contradiction : bool;
}

let oracle_of_union u =
  Oracle.of_fun (fun sg -> if selects u sg then State.Pos else State.Neg)

let run ?(seed = 0) ?(strategy = `Maximin) ~oracle rel =
  let classes, _ = Sigclass.classes rel in
  let rng = Random.State.make [| seed |] in
  let informative st =
    Array.to_list
      (Array.of_seq
         (Seq.filter
            (fun i -> classify st classes.(i).Sigclass.sg = State.Informative)
            (Seq.init (Array.length classes) Fun.id)))
  in
  let decided_if st sg label =
    match add st label sg with
    | Error `Contradiction -> Array.length classes
    | Ok st' ->
      Array.fold_left
        (fun acc (c : Sigclass.cls) ->
          if classify st' c.sg <> State.Informative then acc + 1 else acc)
        0 classes
  in
  let pick st = function
    | [] -> None
    | candidates -> (
      match strategy with
      | `Random ->
        Some (List.nth candidates (Random.State.int rng (List.length candidates)))
      | `Maximin ->
        let score i =
          let sg = classes.(i).Sigclass.sg in
          min (decided_if st sg State.Pos) (decided_if st sg State.Neg)
        in
        let best =
          List.fold_left
            (fun (bi, bs) i ->
              let s = score i in
              if s > bs then (i, s) else (bi, bs))
            (List.hd candidates, score (List.hd candidates))
            (List.tl candidates)
        in
        Some (fst best))
  in
  let rec loop st count =
    match pick st (informative st) with
    | None -> { union = result st; interactions = count; contradiction = false }
    | Some i ->
      let sg = classes.(i).Sigclass.sg in
      let label = Oracle.label oracle sg in
      (match add st label sg with
      | Ok st' -> loop st' (count + 1)
      | Error `Contradiction ->
        { union = result st; interactions = count; contradiction = true })
  in
  loop (create (Relation.arity rel)) 0
