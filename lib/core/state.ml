module Partition = Jim_partition.Partition
module Lattice = Jim_partition.Lattice

type label = Pos | Neg

type t = {
  n : int;
  s : Partition.t;
  negatives : Partition.t list;
  pos_count : int;
  neg_count : int;
}

let create n =
  { n; s = Partition.top n; negatives = []; pos_count = 0; neg_count = 0 }

let normalise_negatives s negs =
  (* Clip into ↓s, drop the ones swallowed by others, sort for canonical
     keys.  A clipped negative equal to s means contradiction — callers
     check before storing. *)
  List.map (Partition.meet s) negs
  |> Lattice.maximal_elements
  |> List.sort Partition.compare

let check_arity st sg =
  if Partition.size sg <> st.n then invalid_arg "State: signature arity mismatch"

let add st label sg =
  check_arity st sg;
  match label with
  | Pos ->
    let s' = Partition.meet st.s sg in
    let negatives' = normalise_negatives s' st.negatives in
    if List.exists (Partition.equal s') negatives' then Error `Contradiction
    else
      Ok
        {
          st with
          s = s';
          negatives = negatives';
          pos_count = st.pos_count + 1;
        }
  | Neg ->
    if Partition.refines st.s sg then Error `Contradiction
    else
      let negatives' = normalise_negatives st.s (sg :: st.negatives) in
      Ok { st with negatives = negatives'; neg_count = st.neg_count + 1 }

let add_exn st label sg =
  match add st label sg with
  | Ok st' -> st'
  | Error `Contradiction -> invalid_arg "State.add_exn: contradictory label"

let hypothetical st sg =
  let branch label =
    match add st label sg with
    | Ok st' -> Some st'
    | Error `Contradiction -> None
  in
  (branch Pos, branch Neg)

type status = Certain_pos | Certain_neg | Informative

let classify st sg =
  check_arity st sg;
  if Partition.refines st.s sg then Certain_pos
  else
    let m = Partition.meet st.s sg in
    if List.exists (fun u -> Partition.refines m u) st.negatives then
      Certain_neg
    else Informative

let selects st sg = Partition.refines st.s sg

let consistent st q =
  Partition.refines q st.s
  && not (List.exists (fun u -> Partition.refines q u) st.negatives)

let canonical st = st.s

(* Keys are the partitions' representative arrays written as raw bytes,
   [s] first and then the sorted negatives: every partition of a state
   has [n] elements, so the layout is fixed-width and the key injective.
   One byte per element while every representative fits, wider past
   that. *)
let key_width n = if n > 0xffff then 4 else if n > 0xff then 2 else 1

let pack n s negatives =
  let w = key_width n in
  let b = Bytes.create (w * n * (1 + List.length negatives)) in
  let put j p =
    let off = j * n in
    for i = 0 to n - 1 do
      let r = Partition.rep p i in
      match w with
      | 1 -> Bytes.unsafe_set b (off + i) (Char.unsafe_chr r)
      | 2 -> Bytes.set_uint16_le b (2 * (off + i)) r
      | _ -> Bytes.set_int32_le b (4 * (off + i)) (Int32.of_int r)
    done
  in
  put 0 s;
  List.iteri (fun j u -> put (j + 1) u) negatives;
  Bytes.unsafe_to_string b

let key st = pack st.n st.s st.negatives
let canonical_key st = pack st.n st.s []

let pp fmt st =
  Format.fprintf fmt "@[<v>s = %a@ negatives = {%s}@ (%d+, %d-)@]"
    Partition.pp st.s
    (String.concat "; " (List.map Partition.to_string st.negatives))
    st.pos_count st.neg_count
