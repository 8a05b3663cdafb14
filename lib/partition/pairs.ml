type t = int array

(* Pair (i, j), i < j, is bit [j(j-1)/2 + i]: the pairs of column [j]
   (its partners below it) are consecutive, and the layout of [n]
   elements is a prefix of the layout of [n + 1].  Bits past the last
   pair stay 0, so [equal] and [refines] may compare whole words. *)
let index i j = (j * (j - 1) / 2) + i

let words n = ((n * (n - 1) / 2) + Sys.int_size - 1) / Sys.int_size

let get b k = b.(k / Sys.int_size) land (1 lsl (k mod Sys.int_size)) <> 0

let set b k =
  let w = k / Sys.int_size in
  b.(w) <- b.(w) lor (1 lsl (k mod Sys.int_size))

let of_partition p =
  let n = Partition.size p in
  let b = Array.make (words n) 0 in
  for j = 1 to n - 1 do
    let r = Partition.rep p j in
    for i = r to j - 1 do
      if Partition.rep p i = r then set b (index i j)
    done
  done;
  b

(* Pairs in bit order: [(i, j)] is bit [k] for the [k]-th pair met. *)
let of_values eq a =
  let n = Array.length a in
  let b = Array.make (words n) 0 in
  let k = ref 0 in
  for j = 1 to n - 1 do
    let x = Array.unsafe_get a j in
    for i = 0 to j - 1 do
      if eq (Array.unsafe_get a i) x then set b !k;
      incr k
    done
  done;
  b

(* [of_values ( = )] on ints, with the equality inline. *)
let of_ints (a : int array) =
  let n = Array.length a in
  let b = Array.make (words n) 0 in
  let k = ref 0 in
  for j = 1 to n - 1 do
    let x = Array.unsafe_get a j in
    for i = 0 to j - 1 do
      if Array.unsafe_get a i = x then set b !k;
      incr k
    done
  done;
  b

(* The smallest partner of [j] below it, or [j] when it has none. *)
let first_partner b j =
  let i = ref 0 in
  while !i < j && not (get b (index !i j)) do
    incr i
  done;
  !i

let to_partition n b = Partition.of_rep_array (Array.init n (first_partner b))

let top n =
  let b = Array.make (words n) 0 in
  for k = 0 to (n * (n - 1) / 2) - 1 do
    set b k
  done;
  b

let meet a b = Array.map2 ( land ) a b

(* The classification kernel: one loop over the words, lengths checked
   once, no closure and no allocation. *)
let meet_refines s g u =
  let n = Array.length s in
  if Array.length g <> n || Array.length u <> n then
    invalid_arg "Pairs: size mismatch";
  let w = ref 0 in
  while
    !w < n
    && Array.unsafe_get s !w
       land Array.unsafe_get g !w
       land lnot (Array.unsafe_get u !w)
       = 0
  do
    incr w
  done;
  !w = n

let refines a b = meet_refines a a b

let equal (a : t) b =
  let n = Array.length a in
  n = Array.length b
  &&
  let w = ref 0 in
  while !w < n && Array.unsafe_get a !w = Array.unsafe_get b !w do
    incr w
  done;
  !w = n

let hash (a : t) =
  let h = ref (Array.length a) in
  for w = 0 to Array.length a - 1 do
    h := (!h * 0x100000001b3) lxor Array.unsafe_get a w
  done;
  !h lxor (!h lsr 29)

let rank n b =
  let r = ref 0 in
  for j = 1 to n - 1 do
    if first_partner b j < j then incr r
  done;
  !r

let block_sizes n b =
  let sizes = ref [] in
  for i = n - 1 downto 0 do
    if first_partner b i = i then begin
      let size = ref 1 in
      for j = i + 1 to n - 1 do
        if get b (index i j) then incr size
      done;
      sizes := !size :: !sizes
    end
  done;
  !sizes
