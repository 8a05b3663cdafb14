let meet_all n = function
  | [] -> Partition.top n
  | p :: rest -> List.fold_left Partition.meet p rest

let join_all n = function
  | [] -> Partition.bottom n
  | p :: rest -> List.fold_left Partition.join p rest

let down_count p = Bell.count_refinements (Partition.block_sizes p)

(* Exact inclusion-exclusion costs 2^k meets; strategies call the count
   once per candidate per question, so the cutover to the Bonferroni
   bound has to stay small. *)
let max_exclusions = 10

let maximal_elements ps =
  let keep p =
    not
      (List.exists
         (fun q -> (not (Partition.equal p q)) && Partition.refines p q)
         ps)
  in
  List.sort_uniq Partition.compare (List.filter keep ps)

let minimal_elements ps =
  let keep p =
    not
      (List.exists
         (fun q -> (not (Partition.equal p q)) && Partition.refines q p)
         ps)
  in
  List.sort_uniq Partition.compare (List.filter keep ps)

let down_minus_count ~top ~excluded =
  (* Clip exclusions into the ideal of [top] and drop redundant ones:
     e ⊑ e' makes ↓e ⊆ ↓e'. *)
  let excluded = List.map (Partition.meet top) excluded in
  let excluded = maximal_elements excluded in
  let total = down_count top in
  match excluded with
  | [] -> total
  | _ when List.exists (Partition.equal top) excluded -> 0.0
  | es ->
    let es = Array.of_list es in
    let k = Array.length es in
    if k <= max_exclusions then begin
      (* Inclusion–exclusion over all non-empty subsets; the meet of a
         subset is built incrementally along the subset-enumeration
         recursion to avoid recomputing from scratch. *)
      let acc = ref total in
      let rec go i current sign =
        if i = k then ()
        else begin
          (* Include es.(i). *)
          let m = match current with None -> es.(i) | Some c -> Partition.meet c es.(i) in
          acc := !acc +. (sign *. down_count m);
          go (i + 1) (Some m) (-.sign);
          (* Skip es.(i). *)
          go (i + 1) current sign
        end
      in
      go 0 None (-1.0);
      !acc
    end
    else begin
      (* Bonferroni truncation at depth 2 (lower bound, clamped at 0). *)
      let acc = ref total in
      for i = 0 to k - 1 do
        acc := !acc -. down_count es.(i)
      done;
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          acc := !acc +. down_count (Partition.meet es.(i) es.(j))
        done
      done;
      Float.max 0.0 !acc
    end
