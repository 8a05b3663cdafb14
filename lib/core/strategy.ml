module Partition = Jim_partition.Partition

type ctx = {
  state : State.t;
  classes : Sigclass.cls array;
  informative : int array;
  memo : Scorer.memo;
  rng : Random.State.t;
}

type t = {
  name : string;
  descr : string;
  kind : [ `Random | `Local | `Lookahead ];
  pick : ctx -> int option;
}

let scorer_of ctx =
  Scorer.create ~memo:ctx.memo ctx.state ctx.classes ctx.informative

let hypothetical = State.hypothetical

(* Unmemoised reference implementations, kept as the specification the
   scorer's memoised [decided_counts]/[decided_cards] are property-tested
   against.  They work on [Partition.t] alone ([refines] and [meet], no
   pair words), so they stay independent of the engine's kernel.  A
   branch state is [s] and the negatives, neither clipped nor pruned:
   neither changes any classification.  [ref_decided]: is a class of
   signature [sg] certain (either way) in the branch? *)
let ref_decided (s, negatives) sg =
  Partition.refines s sg
  ||
  let m = Partition.meet s sg in
  List.exists (Partition.refines m) negatives

(* The two branches of labelling [sg]; [None] marks a contradiction. *)
let ref_branches (st : State.t) sg =
  let s' = Partition.meet st.s sg in
  ( (if List.exists (Partition.refines s') st.negatives then None
     else Some (s', st.negatives)),
    if Partition.refines st.s sg then None
    else Some (st.s, sg :: st.negatives) )

let decided_gen weight st classes informative c =
  let pos, neg = ref_branches st classes.(c).Sigclass.sg in
  let count = function
    | None -> List.fold_left (fun acc i -> acc + weight i) 0 informative
    | Some b ->
      List.fold_left
        (fun acc i ->
          if ref_decided b classes.(i).Sigclass.sg then acc + weight i
          else acc)
        0 informative
  in
  (count pos, count neg)

let decided_counts st classes informative c =
  decided_gen (fun _ -> 1) st classes informative c

(* Same, but weighting each decided class by its tuple count — the measure
   shown to the user ("how many tuples got grayed out"). *)
let decided_cards st classes informative c =
  decided_gen (fun i -> classes.(i).Sigclass.card) st classes informative c

let argmax_by score ctx = Scorer.best (scorer_of ctx) score

let random =
  {
    name = "random";
    descr = "uniformly random informative tuple (baseline)";
    kind = `Random;
    pick =
      (fun ctx ->
        match Array.length ctx.informative with
        | 0 -> None
        | k -> Some ctx.informative.(Random.State.int ctx.rng k));
  }

let local_specific =
  {
    name = "local-specific";
    descr = "local: maximise the equalities shared with the candidate s";
    kind = `Local;
    pick =
      (fun ctx ->
        argmax_by (fun sc i -> float_of_int (Scorer.meet_rank sc i)) ctx);
  }

let local_general =
  {
    name = "local-general";
    descr = "local: minimise the equalities shared with the candidate s";
    kind = `Local;
    pick =
      (fun ctx ->
        argmax_by (fun sc i -> -.float_of_int (Scorer.meet_rank sc i)) ctx);
  }

let local_lex =
  {
    name = "local-lex";
    descr = "local: first informative signature in lexicographic order";
    kind = `Local;
    pick =
      (fun ctx ->
        if Array.length ctx.informative = 0 then None
        else
          Some
            (Array.fold_left
               (fun b i ->
                 if
                   Partition.compare ctx.classes.(i).Sigclass.sg
                     ctx.classes.(b).Sigclass.sg
                   < 0
                 then i
                 else b)
               ctx.informative.(0) ctx.informative));
  }

let lookahead_maximin =
  {
    name = "lookahead-maximin";
    descr = "lookahead: maximise the guaranteed number of decided classes";
    kind = `Lookahead;
    pick =
      (fun ctx ->
        argmax_by
          (fun sc i ->
            let p, n = Scorer.decided_counts sc i in
            float_of_int (min p n))
          ctx);
  }

let lookahead_expected =
  {
    name = "lookahead-expected";
    descr = "lookahead: maximise the expected number of grayed-out tuples";
    kind = `Lookahead;
    pick =
      (fun ctx ->
        argmax_by
          (fun sc i ->
            let p, n = Scorer.decided_cards sc i in
            float_of_int (p + n) /. 2.0)
          ctx);
  }

let binary_entropy p =
  if p <= 0.0 || p >= 1.0 then 0.0
  else -.((p *. log p) +. ((1.0 -. p) *. log (1.0 -. p)))

let entropy_score sc i =
  let vp, vn = Scorer.vs_split sc i in
  let p, n = Scorer.decided_counts sc i in
  let maximin = float_of_int (min p n) in
  let total = vp +. vn in
  if not (Float.is_finite total) then
    (* Version-space counts saturate to [infinity] on wide instances;
       [vp /. total] would be NaN and poison the argmax (NaN beats
       nothing, so the first candidate would always win).  Fall back to
       the maximin pruning score. *)
    maximin
  else if total <= 0.0 then 0.0
  else
    (* Entropy first; pruning-count as an epsilon tie-break so
       equal splits prefer bigger immediate progress. *)
    binary_entropy (vp /. total) +. (1e-9 *. maximin)

let lookahead_entropy =
  {
    name = "lookahead-entropy";
    descr = "lookahead: maximise the entropy of the version-space split";
    kind = `Lookahead;
    pick = (fun ctx -> argmax_by entropy_score ctx);
  }

let all =
  [
    random;
    local_lex;
    local_specific;
    local_general;
    lookahead_maximin;
    lookahead_expected;
    lookahead_entropy;
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) all

(* The two strategies whose machinery lives outside this module join the
   catalogue here (their modules cannot depend on this one and also be
   depended on by it), so [of_string] below is the single canonical name
   table for the CLI, the bench harness and the wire protocol. *)

let lookahead2 ?beam () =
  {
    name = "lookahead-2";
    descr = "two-step maximin lookahead (beam-limited)";
    kind = `Lookahead;
    pick =
      (fun ctx ->
        Lookahead2.pick ?beam ~memo:ctx.memo ctx.state ctx.classes
          ctx.informative);
  }

let optimal ?max_states () =
  {
    name = "optimal";
    descr = "exact minimax policy (exponential; small instances only)";
    kind = `Lookahead;
    pick = (fun ctx -> Optimal.best_question ?max_states ctx.state ctx.classes);
  }

let names = List.map (fun s -> s.name) all @ [ "lookahead-2"; "optimal" ]

let to_string s = s.name

let of_string = function
  | "optimal" -> Ok (optimal ())
  | "lookahead-2" | "lookahead2" -> Ok (lookahead2 ())
  | name -> (
    match find name with
    | Some s -> Ok s
    | None ->
      Error
        (Printf.sprintf "unknown strategy %S (try: %s)" name
           (String.concat ", " names)))
