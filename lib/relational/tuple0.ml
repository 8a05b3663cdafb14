module Partition = Jim_partition.Partition

type t = Value.t array

let arity = Array.length
let get (t : t) i = t.(i)
let make = Array.of_list
let concat = Array.append
let project (t : t) idxs = Array.of_list (List.map (fun i -> t.(i)) idxs)

let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 Value.identical a b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i = la then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let signature (t : t) =
  let n = Array.length t in
  (* Group positions by value; first occurrence is the canonical (smallest)
     representative, matching Partition's invariant. *)
  let tbl = Hashtbl.create (2 * n) in
  let rep = Array.make n 0 in
  for i = 0 to n - 1 do
    (* Hashtbl keys use structural equality, which coincides with
       Value.identical on this value type. *)
    match Hashtbl.find_opt tbl t.(i) with
    | Some r -> rep.(i) <- r
    | None ->
      Hashtbl.add tbl t.(i) i;
      rep.(i) <- i
  done;
  Partition.of_rep_array rep

let satisfies theta (t : t) =
  if Partition.size theta <> Array.length t then
    invalid_arg "Tuple0.satisfies: arity mismatch";
  Partition.refines theta (signature t)

let to_string t =
  "(" ^ String.concat ", " (List.map Value.to_string (Array.to_list t)) ^ ")"

let pp fmt t = Format.pp_print_string fmt (to_string t)
