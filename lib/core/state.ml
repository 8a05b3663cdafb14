module Partition = Jim_partition.Partition
module Pairs = Jim_partition.Pairs

type label = Pos | Neg

type t = {
  n : int;
  s : Partition.t;
  negatives : Partition.t list;
  pos_count : int;
  neg_count : int;
  s_bits : Pairs.t;
  neg_bits : Pairs.t list;
}

let create n =
  {
    n;
    s = Partition.top n;
    negatives = [];
    pos_count = 0;
    neg_count = 0;
    s_bits = Pairs.top n;
    neg_bits = [];
  }

(* Clip each negative (with its words) into ↓s, drop the ones swallowed
   by others, sort for canonical keys.  A clipped negative equal to s
   means contradiction — callers check before storing. *)
let normalise_negatives s s_bits negs =
  let clip ((u, ub) as neg) =
    let ub' = Pairs.meet s_bits ub in
    if Pairs.equal ub' ub then neg else (Partition.meet s u, ub')
  in
  let negs = List.map clip negs in
  let below (_, ub) (_, vb) = (not (Pairs.equal ub vb)) && Pairs.refines ub vb in
  List.filter (fun u -> not (List.exists (below u) negs)) negs
  |> List.sort_uniq (fun (u, _) (v, _) -> Partition.compare u v)
  |> List.split

let check_arity st sg =
  if Partition.size sg <> st.n then invalid_arg "State: signature arity mismatch"

let add_bits st label sg g =
  check_arity st sg;
  let negs = List.combine st.negatives st.neg_bits in
  match label with
  | Pos ->
    let s' = Partition.meet st.s sg and s_bits' = Pairs.meet st.s_bits g in
    let negatives', neg_bits' = normalise_negatives s' s_bits' negs in
    if List.exists (Pairs.equal s_bits') neg_bits' then Error `Contradiction
    else
      Ok
        {
          st with
          s = s';
          s_bits = s_bits';
          negatives = negatives';
          neg_bits = neg_bits';
          pos_count = st.pos_count + 1;
        }
  | Neg ->
    if Pairs.refines st.s_bits g then Error `Contradiction
    else
      let negatives', neg_bits' =
        normalise_negatives st.s st.s_bits ((sg, g) :: negs)
      in
      Ok
        {
          st with
          negatives = negatives';
          neg_bits = neg_bits';
          neg_count = st.neg_count + 1;
        }

let add st label sg = add_bits st label sg (Pairs.of_partition sg)

let add_exn st label sg =
  match add st label sg with
  | Ok st' -> st'
  | Error `Contradiction -> invalid_arg "State.add_exn: contradictory label"

let hypothetical st sg =
  let g = Pairs.of_partition sg in
  let branch label =
    match add_bits st label sg g with
    | Ok st' -> Some st'
    | Error `Contradiction -> None
  in
  (branch Pos, branch Neg)

type status = Certain_pos | Certain_neg | Informative

let rec below_any s g = function
  | [] -> false
  | u :: us -> Pairs.meet_refines s g u || below_any s g us

let classify_bits st g =
  if Pairs.refines st.s_bits g then Certain_pos
  else if below_any st.s_bits g st.neg_bits then Certain_neg
  else Informative

let classify st sg =
  check_arity st sg;
  classify_bits st (Pairs.of_partition sg)

let selects st sg = Partition.refines st.s sg

let consistent st q =
  check_arity st q;
  let qb = Pairs.of_partition q in
  Pairs.refines qb st.s_bits
  && not (List.exists (Pairs.refines qb) st.neg_bits)

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

let pp fmt st =
  Format.fprintf fmt "@[<v>s = %a@ negatives = {%s}@ (%d+, %d-)@]"
    Partition.pp st.s
    (String.concat "; " (List.map Partition.to_string st.negatives))
    st.pos_count st.neg_count
