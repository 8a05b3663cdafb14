(* Depth-2 maximin.  For candidate c:
     score2(c) = min over consistent answers a of
                   decided(c, a) + best one-step maximin in state(c, a)
   The follow-up term is 0 when the answer already finishes the session.

   All classification work runs through scorers on the pick's memo, so
   the inner one-step sweeps share the memoised hypothetical
   classifications.

   This module knows nothing about {!Strategy} (the catalogue wraps
   {!pick} as [Strategy.lookahead2] — keeping the dependency one-way is
   what lets the catalogue own the canonical name table). *)

let one_step_maximin sc c =
  let p, n = Scorer.decided_counts sc c in
  min p n

let best_one_step memo st classes =
  let sc = Scorer.of_state ~memo st classes in
  Array.fold_left
    (fun acc c -> max acc (one_step_maximin sc c))
    0 (Scorer.informative sc)

let pick ?(beam = 8) ~memo st classes informative =
  if Array.length informative = 0 then None
  else begin
    let sc = Scorer.create ~memo st classes informative in
    (* Beam: keep the candidates with the best one-step maximin. *)
    let scored =
      List.map
        (fun c -> (c, one_step_maximin sc c))
        (Array.to_list informative)
    in
    let beam_set =
      List.sort (fun (_, a) (_, b) -> compare b a) scored
      |> List.filteri (fun i _ -> i < beam)
      |> List.map fst
    in
    let score2 c =
      let st_pos, st_neg = Scorer.hypothetical sc c in
      let arm label_state =
        match label_state with
        | None -> max_int (* impossible answer does not constrain the min *)
        | Some st' ->
          Scorer.decided_under sc st' + best_one_step memo st' classes
      in
      min (arm st_pos) (arm st_neg)
    in
    let best =
      List.fold_left
        (fun (bc, bs) c ->
          let s = score2 c in
          if s > bs then (c, s) else (bc, bs))
        (List.hd beam_set, score2 (List.hd beam_set))
        (List.tl beam_set)
    in
    Some (fst best)
  end
