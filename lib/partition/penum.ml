(* Enumerate partitions of an arbitrary element list via restricted growth
   strings over the list positions, calling [f] with the blocks (lists of
   the original elements). *)
let iter_set_partitions elems f =
  match elems with
  | [] -> f []
  | _ ->
    let elems = Array.of_list elems in
    let k = Array.length elems in
    let rgs = Array.make k 0 in
    let emit () =
      let nblocks = 1 + Array.fold_left max 0 rgs in
      let acc = Array.make nblocks [] in
      for i = k - 1 downto 0 do
        acc.(rgs.(i)) <- elems.(i) :: acc.(rgs.(i))
      done;
      f (Array.to_list acc)
    in
    (* rgs.(0) = 0 always; position i may take values 0 .. 1+max(prefix). *)
    let rec go i maxv =
      if i = k then emit ()
      else
        for v = 0 to maxv + 1 do
          rgs.(i) <- v;
          go (i + 1) (max maxv v)
        done
    in
    if k = 0 then f []
    else begin
      rgs.(0) <- 0;
      go 1 0
    end

let iter_all n f =
  iter_set_partitions (List.init n (fun i -> i)) (fun blocks ->
      f (Partition.of_blocks n blocks))

let all n =
  if n > 12 then invalid_arg "Penum.all: size too large to materialise";
  let out = ref [] in
  iter_all n (fun p -> out := p :: !out);
  List.rev !out

(* Partitions refining [p]: an independent choice of a set partition inside
   each block of [p]. *)
let iter_below p f =
  let n = Partition.size p in
  let bs = Partition.blocks p in
  let rec go remaining chosen =
    match remaining with
    | [] -> f (Partition.of_blocks n chosen)
    | block :: rest ->
      iter_set_partitions block (fun sub -> go rest (List.rev_append sub chosen))
  in
  go bs []

let below p =
  let out = ref [] in
  iter_below p (fun q -> out := q :: !out);
  List.rev !out

let count_below p = Bell.count_refinements (Partition.block_sizes p)

(* Interval [lo, hi]: inside each block of [hi], the lo-blocks it contains
   may be merged arbitrarily; enumerate set partitions of the lo-block
   representatives per hi-block and splice the merges on top of lo. *)
let iter_between lo hi f =
  if not (Partition.refines lo hi) then invalid_arg "Penum.iter_between";
  let n = Partition.size lo in
  let lo_pairs = Partition.pairs lo in
  (* lo-representatives grouped by hi-block. *)
  let groups = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    if Partition.rep lo i = i then begin
      let h = Partition.rep hi i in
      let cur = try Hashtbl.find groups h with Not_found -> [] in
      Hashtbl.replace groups h (i :: cur)
    end
  done;
  let groups = Hashtbl.fold (fun _ reps acc -> reps :: acc) groups [] in
  let rec go remaining merge_pairs =
    match remaining with
    | [] -> f (Partition.of_pairs n (List.rev_append merge_pairs lo_pairs))
    | reps :: rest ->
      iter_set_partitions reps (fun sub_blocks ->
          let extra =
            List.concat_map
              (fun block ->
                match block with
                | [] | [ _ ] -> []
                | x :: others -> List.map (fun y -> (x, y)) others)
              sub_blocks
          in
          go rest (List.rev_append extra merge_pairs))
  in
  go groups []
