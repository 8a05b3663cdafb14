(** Two-step lookahead: an ablation between the one-step heuristics and
    the full exponential {!Optimal} policy.

    Scores a candidate by the worst answer's {e best follow-up}: the
    guaranteed number of classes decided after this question plus the
    best one-step maximin available in the resulting state.  Depth-2
    minimax is cubic in the number of informative classes, so candidates
    are pre-filtered to the [beam] best one-step scores. *)

val pick :
  ?beam:int ->
  memo:Scorer.memo ->
  State.t -> Sigclass.cls array -> int array -> int option
(** [pick ~memo st classes informative] — the raw selection function
    (default beam 8), scoring on the pick's memo.  The {!Strategy.t}
    wrapper, named ["lookahead-2"], is {!Strategy.lookahead2}. *)
