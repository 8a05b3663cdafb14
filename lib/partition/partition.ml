type t = int array

(* Invariant: r.(i) is the smallest element of i's block, hence
   r.(i) <= i and r.(r.(i)) = r.(i). *)

let bottom n =
  if n < 0 then invalid_arg "Partition.bottom";
  Array.init n (fun i -> i)

let top n =
  if n < 0 then invalid_arg "Partition.top";
  Array.make n 0

let size = Array.length

let rep p i = p.(i)

let same p i j = p.(i) = p.(j)

let of_dsu d = Dsu.canonical d

let of_rep_array a =
  let n = Array.length a in
  (* Already canonical (every element points at its block's smallest
     element, which points at itself): the array is the partition. *)
  let rec canonical i =
    i = n
    || (let r = a.(i) in
        r >= 0 && r <= i && a.(r) = r && canonical (i + 1))
  in
  if canonical 0 then Array.copy a
  else begin
    let d = Dsu.create n in
    Array.iteri
      (fun i r ->
        if r < 0 || r >= n then invalid_arg "Partition.of_rep_array";
        ignore (Dsu.union d i r))
      a;
    of_dsu d
  end

let of_blocks n blocks =
  let d = Dsu.create n in
  let seen = Array.make n false in
  let add_block block =
    match block with
    | [] -> ()
    | x :: rest ->
      let check e =
        if e < 0 || e >= n then invalid_arg "Partition.of_blocks: out of range";
        if seen.(e) then invalid_arg "Partition.of_blocks: duplicate element";
        seen.(e) <- true
      in
      check x;
      List.iter
        (fun e ->
          check e;
          ignore (Dsu.union d x e))
        rest
  in
  List.iter add_block blocks;
  of_dsu d

let of_pairs n pairs =
  let d = Dsu.create n in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Partition.of_pairs: out of range";
      ignore (Dsu.union d i j))
    pairs;
  of_dsu d

let block_count p =
  let c = ref 0 in
  Array.iteri (fun i r -> if r = i then incr c) p;
  !c

let rank p = size p - block_count p

let blocks p =
  let n = size p in
  (* Collect members per representative, scanning right to left so each
     accumulated list comes out sorted. *)
  let acc = Array.make n [] in
  for i = n - 1 downto 0 do
    acc.(p.(i)) <- i :: acc.(p.(i))
  done;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if p.(i) = i then out := acc.(i) :: !out
  done;
  !out

let nontrivial_blocks p =
  List.filter (fun b -> List.length b >= 2) (blocks p)

let block_sizes p = List.map List.length (blocks p)

let pairs p =
  let n = size p in
  let out = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      if p.(i) = p.(j) then out := (i, j) :: !out
    done
  done;
  !out

let is_bottom p =
  let n = size p in
  let rec go i = i >= n || (p.(i) = i && go (i + 1)) in
  go 0

let is_top p =
  let n = size p in
  let rec go i = i >= n || (p.(i) = 0 && go (i + 1)) in
  n = 0 || go 0

let equal (p : t) (q : t) = p = q

let compare (p : t) (q : t) = Stdlib.compare p q

let hash (p : t) = Hashtbl.hash p

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let check_sizes name p q =
  if size p <> size q then invalid_arg ("Partition." ^ name ^ ": size mismatch")

(* p refines q iff each block of p lies inside a block of q, which holds
   iff every element shares q-block with its p-representative. *)
let refines p q =
  check_sizes "refines" p q;
  let n = size p in
  let rec go i = i >= n || (q.(i) = q.(p.(i)) && go (i + 1)) in
  go 0

(* Walk each p-block in increasing order through [next] (the following
   member of the block, or [n]).  Within the block of [b], [stamp.(c)]
   is the first member seen in q-block [c] when it lies in [b]'s block
   ([p] of it is [b]); a stale stamp from an earlier block fails that
   test.  The first member seen is the smallest, hence canonical. *)
let meet p q =
  check_sizes "meet" p q;
  let n = size p in
  let next = Array.make n n and stamp = Array.make n n in
  (* [stamp] serves first as each block's head while linking. *)
  for i = n - 1 downto 0 do
    next.(i) <- stamp.(p.(i));
    stamp.(p.(i)) <- i
  done;
  Array.fill stamp 0 n n;
  let r = Array.make n 0 in
  for b = 0 to n - 1 do
    if p.(b) = b then begin
      let e = ref b in
      while !e < n do
        let f = stamp.(q.(!e)) in
        if f < n && p.(f) = b then r.(!e) <- f
        else begin
          stamp.(q.(!e)) <- !e;
          r.(!e) <- !e
        end;
        e := next.(!e)
      done
    end
  done;
  r

let join p q =
  check_sizes "join" p q;
  let n = size p in
  let d = Dsu.create n in
  for i = 0 to n - 1 do
    ignore (Dsu.union d i p.(i));
    ignore (Dsu.union d i q.(i))
  done;
  of_dsu d

let restrict p ~allowed =
  let n = size p in
  let d = Dsu.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if p.(i) = p.(j) && allowed (i, j) then ignore (Dsu.union d i j)
    done
  done;
  of_dsu d

let to_rgs p =
  let n = size p in
  let idx = Array.make n (-1) in
  let next = ref 0 in
  Array.map
    (fun r ->
      if idx.(r) < 0 then begin
        idx.(r) <- !next;
        incr next
      end;
      idx.(r))
    p

let of_rgs rgs =
  let n = Array.length rgs in
  let first = Hashtbl.create (2 * n) in
  Array.init n (fun i ->
      match Hashtbl.find_opt first rgs.(i) with
      | Some r -> r
      | None ->
        Hashtbl.add first rgs.(i) i;
        i)

let to_string_gen name p =
  let buf = Buffer.create 32 in
  List.iter
    (fun block ->
      Buffer.add_char buf '{';
      List.iteri
        (fun k e ->
          if k > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (name e))
        block;
      Buffer.add_char buf '}')
    (blocks p);
  Buffer.contents buf

let to_string p = to_string_gen string_of_int p

let of_string s =
  let exception Bad of string in
  try
    let blocks = ref [] and i = ref 0 in
    let n = String.length s in
    while !i < n do
      if s.[!i] <> '{' then raise (Bad "expected '{'");
      incr i;
      let close =
        match String.index_from_opt s !i '}' with
        | Some j -> j
        | None -> raise (Bad "unterminated block")
      in
      let body = String.sub s !i (close - !i) in
      let elems =
        List.map
          (fun e ->
            match int_of_string_opt (String.trim e) with
            | Some v -> v
            | None -> raise (Bad ("bad element " ^ e)))
          (if body = "" then raise (Bad "empty block")
           else String.split_on_char ',' body)
      in
      blocks := elems :: !blocks;
      i := close + 1
    done;
    let elems = List.concat !blocks in
    let size = List.length elems in
    if List.sort_uniq Stdlib.compare elems <> List.init size (fun k -> k) then
      raise (Bad "elements must cover 0..n-1 exactly once");
    Ok (of_blocks size !blocks)
  with
  | Bad msg -> Error ("Partition.of_string: " ^ msg)
  | Invalid_argument msg -> Error msg

let to_string_names names p =
  if Array.length names <> size p then
    invalid_arg "Partition.to_string_names: size mismatch";
  to_string_gen (fun i -> names.(i)) p

let pp fmt p = Format.pp_print_string fmt (to_string p)
