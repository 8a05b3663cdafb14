(* Per-session vote coordinator: the state machine behind the crowd
   labeling wire messages.  Purely in-memory and owned by the thread
   that serves its session — the service drives it and owns all engine and
   journal effects (two-phase: [expire]/[vote] return an [Aggregate]
   decision, the service absorbs it through the normal answer path and
   reports back with [absorbed]/[rejected]). *)

module P = Jim_api.Protocol
open Jim_core

type config = { votes : int; timeout : float; weighted : bool }

type decision = Wait | Aggregate of State.label

type t = {
  config : config;
  estimator : Votes.Estimator.t;
  mutable round : int;
  mutable ballots : (int * State.label) list;  (* (labeler, label), LIFO *)
  mutable deadline : float;  (* absolute; checked on poll/vote, no timer *)
  mutable rounds : int;
  mutable paid_labels : int;
  mutable majority_flips : int;
  mutable timeouts : int;
  mutable re_asks : int;
}

let check_config c =
  if c.votes <= 0 || c.votes mod 2 = 0 then
    invalid_arg "Coordinator: votes must be odd and positive";
  if not (c.timeout > 0.) then invalid_arg "Coordinator: timeout must be positive"

let create ~now config =
  check_config config;
  {
    config;
    estimator = Votes.Estimator.create ();
    round = 1;
    ballots = [];
    deadline = now +. config.timeout;
    rounds = 0;
    paid_labels = 0;
    majority_flips = 0;
    timeouts = 0;
    re_asks = 0;
  }

let quorum t = t.config.votes
let round t = t.round
let attach t = Votes.Estimator.add t.estimator
let known t id = Votes.Estimator.known t.estimator id
let accuracy t id = Votes.Estimator.counts t.estimator id

let reopen ~now t =
  t.round <- t.round + 1;
  t.ballots <- [];
  t.deadline <- now +. t.config.timeout

let re_ask ~now t =
  t.re_asks <- t.re_asks + 1;
  reopen ~now t

let tally t =
  let weight id =
    if t.config.weighted then Votes.Estimator.weight t.estimator id else 1.
  in
  (* rev_map: tally is order-independent, but keep arrival order anyway so
     traces read naturally. *)
  Votes.tally (List.rev_map (fun (id, l) -> (l, weight id)) t.ballots)

let expire ~now t =
  if now < t.deadline then Wait
  else if t.ballots = [] then begin
    (* Nobody voted at all — nothing to aggregate and nothing gained by
       burning a re-ask; just restart the clock. *)
    t.deadline <- now +. t.config.timeout;
    Wait
  end
  else
    match (tally t).Votes.label with
    | Some l ->
      t.timeouts <- t.timeouts + 1;
      Aggregate l
    | None -> re_ask ~now t; Wait

let vote ~now t ~labeler ~round ~label =
  if not (known t labeler) then `Unknown
  else if round <> t.round || List.mem_assoc labeler t.ballots then `Stale
  else begin
    t.ballots <- (labeler, label) :: t.ballots;
    if List.length t.ballots < t.config.votes then `Counted Wait
    else
      match (tally t).Votes.label with
      | Some l -> `Counted (Aggregate l)
      | None ->
        (* only reachable with weighted aggregation: an exact float tie
           across an odd ballot count *)
        re_ask ~now t;
        `Counted Wait
  end

let absorbed ~now t label =
  let saw l = List.exists (fun (_, l') -> l' = l) t.ballots in
  if saw State.Pos && saw State.Neg then
    t.majority_flips <- t.majority_flips + 1;
  List.iter
    (fun (id, l) -> Votes.Estimator.record t.estimator id ~agreed:(l = label))
    t.ballots;
  t.paid_labels <- t.paid_labels + List.length t.ballots;
  t.rounds <- t.rounds + 1;
  reopen ~now t

let rejected ~now t = re_ask ~now t

let stats t =
  {
    P.labelers = Votes.Estimator.count t.estimator;
    votes = t.config.votes;
    weighted = t.config.weighted;
    rounds = t.rounds;
    paid_labels = t.paid_labels;
    majority_flips = t.majority_flips;
    timeouts = t.timeouts;
    re_asks = t.re_asks;
  }
