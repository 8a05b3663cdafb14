exception Too_large

(* Worst-case depth of the optimal decision tree:
     depth(st) = 0                                  if nothing informative
     depth(st) = 1 + min_c max over consistent answers of depth(st + answer)
   A branch whose answer would contradict the labels is impossible for a
   sound user, so it does not constrain the max. *)

let search ?(max_states = 200_000) st classes =
  let memo : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let visited = ref 0 in
  let rec depth st =
    let k = State.key st in
    match Hashtbl.find_opt memo k with
    | Some d -> d
    | None ->
      incr visited;
      if !visited > max_states then raise Too_large;
      let informative = informative_of st in
      let d =
        match informative with
        | [] -> 0
        | _ ->
          let best = ref max_int in
          List.iter
            (fun c ->
              (* Lower bound: any question costs at least 1. *)
              if !best > 1 then begin
                let worst = branch_worst st c in
                if worst < !best then best := worst
              end)
            informative;
          !best
      in
      Hashtbl.replace memo k d;
      d
  and branch_worst st c =
    let sg = classes.(c).Sigclass.sg in
    let st_pos, st_neg = State.hypothetical st sg in
    let arm = function None -> 0 | Some st' -> depth st' in
    1 + max (arm st_pos) (arm st_neg)
  and informative_of st =
    let out = ref [] in
    Array.iteri
      (fun i (c : Sigclass.cls) ->
        if State.classify_bits st c.bits = State.Informative then out := i :: !out)
      classes;
    List.rev !out
  in
  let informative = informative_of st in
  match informative with
  | [] -> (0, None)
  | _ ->
    let best_d = ref max_int and best_c = ref None in
    List.iter
      (fun c ->
        let worst = branch_worst st c in
        if worst < !best_d then begin
          best_d := worst;
          best_c := Some c
        end)
      informative;
    (!best_d, !best_c)

let worst_case_depth ?max_states st classes =
  fst (search ?max_states st classes)

let best_question ?max_states st classes =
  snd (search ?max_states st classes)
