(* Crowd-scale noisy labeling: vote aggregation, the per-session vote
   coordinator, and the fan-out crowd path end to end.

   Layers under test, bottom up:
   - [Jim_core.Votes]: weighted majority + the Laplace accuracy
     estimator, with the bit-identity property (uniform weights = exact
     majority) qcheck'd.
   - [Jim_core.Crowd] / [Jim_core.Teaching] error paths.
   - [Jim_server.Coordinator]: the round state machine driven with a
     hand clock — quorum close, straggler deadline, ties, stale ballots.
   - [Jim_server.Service]: the wire-visible crowd protocol in-process —
     pinned guard strings, and the headline qcheck that a perfect crowd
     of any odd size leaves the session bit-identical to the in-process
     [Session.run].
   - Convergence under noise: an error-rate x votes grid; at per-labeler
     error <= 0.2 with votes = 5 every seeded run must infer the goal
     predicate.
   - Recovery: a crowd session restored from its journal (which holds
     only absorbed aggregates) re-attaches fresh labelers and finishes
     bit-identically.
   - The real wire: [Smoke.crowd_run] against a served crowd session,
     and the stalled-reply regression (a server that stalls classifies
     as a transport drop, never divergence). *)

module P = Jim_partition.Partition
module Pr = Jim_api.Protocol
module Service = Jim_server.Service
module Coordinator = Jim_server.Coordinator
module Wire = Jim_server.Wire
module Smoke = Jim_server.Smoke
module Chaos = Jim_server.Chaos
module Store = Jim_store.Store
module Recovery = Jim_store.Recovery
module Memfs = Jim_fault.Memfs
module W = Jim_workloads
open Jim_core

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let partition s =
  match P.of_string s with Ok p -> p | Error e -> Alcotest.fail e

let expect_invalid_arg what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

(* ------------------------------------------------------------------ *)
(* Votes: weighted majority and the accuracy estimator                 *)

let test_tally_validation () =
  expect_invalid_arg "empty ballots" (fun () -> Votes.tally []);
  expect_invalid_arg "zero weight" (fun () ->
      Votes.tally [ (State.Pos, 1.); (State.Neg, 0.) ]);
  expect_invalid_arg "negative weight" (fun () ->
      Votes.tally [ (State.Pos, -0.5) ]);
  (* an exact tie elects nobody but reports the dissent *)
  let v = Votes.tally [ (State.Pos, 1.); (State.Neg, 1.) ] in
  Alcotest.(check bool) "tie: no label" true (v.Votes.label = None);
  Alcotest.(check bool) "tie: dissent" true v.Votes.dissent

let gen_ballots =
  (* odd-length label lists, 1 to 9 ballots *)
  QCheck.Gen.(
    let* k = int_range 0 4 in
    list_size
      (return ((2 * k) + 1))
      (oneofl [ State.Pos; State.Neg ]))

let prop_uniform_weights_equal_majority =
  qtest ~count:300 "uniform-weight tally = exact majority, bit for bit"
    (QCheck.make
       ~print:(fun ls ->
         String.concat ""
           (List.map (function State.Pos -> "+" | State.Neg -> "-") ls))
       gen_ballots)
    (fun labels ->
      let weighted = Votes.tally (List.map (fun l -> (l, 0.5)) labels) in
      let exact = Votes.majority labels in
      weighted.Votes.label = exact.Votes.label
      && weighted.Votes.dissent = exact.Votes.dissent
      (* odd ballot count: somebody always wins *)
      && exact.Votes.label <> None)

let test_estimator_laplace () =
  let e = Votes.Estimator.create () in
  let a = Votes.Estimator.add e in
  let b = Votes.Estimator.add e in
  Alcotest.(check int) "ids are 1-based" 1 a;
  Alcotest.(check int) "then 2" 2 b;
  Alcotest.(check int) "count" 2 (Votes.Estimator.count e);
  Alcotest.(check bool) "known" true (Votes.Estimator.known e b);
  Alcotest.(check bool) "unknown" false (Votes.Estimator.known e 3);
  Alcotest.(check (float 0.) ) "fresh weight is 1/2" 0.5
    (Votes.Estimator.weight e a);
  (* (agreed + 1) / (voted + 2): two agreements, one dissent *)
  Votes.Estimator.record e a ~agreed:true;
  Votes.Estimator.record e a ~agreed:true;
  Votes.Estimator.record e a ~agreed:false;
  Alcotest.(check (float 1e-9)) "3 rounds: (2+1)/(3+2)" 0.6
    (Votes.Estimator.weight e a);
  Alcotest.(check (pair int int)) "counts" (2, 3) (Votes.Estimator.counts e a);
  Votes.Estimator.record e b ~agreed:false;
  Alcotest.(check (float 1e-9)) "dissenter sinks below 1/2" (1. /. 3.)
    (Votes.Estimator.weight e b);
  expect_invalid_arg "weight of unknown id" (fun () ->
      Votes.Estimator.weight e 9)

(* ------------------------------------------------------------------ *)
(* Crowd and Teaching error paths                                      *)

let test_crowd_votes_validation () =
  let worker = Oracle.of_goal W.Flights.q2 in
  List.iter
    (fun votes ->
      match
        Crowd.run ~votes ~strategy:Strategy.local_lex ~worker
          W.Flights.instance
      with
      | exception Invalid_argument m ->
        Alcotest.(check string)
          (Printf.sprintf "votes=%d pinned message" votes)
          "Crowd.run: votes must be odd and positive" m
      | _ -> Alcotest.failf "votes=%d accepted" votes)
    [ 0; 2; -3 ]

let test_crowd_perfect_worker_identity () =
  (* A perfect worker makes every aggregate the goal label, whatever the
     redundancy: the crowd loop must be bit-identical to [Session.run]
     and pay exactly [questions * votes] labels without dissent. *)
  let worker = Oracle.of_goal W.Flights.q2 in
  let reference =
    Session.run ~seed:5 ~strategy:Strategy.local_lex ~oracle:worker
      W.Flights.instance
  in
  List.iter
    (fun votes ->
      let o =
        Crowd.run ~seed:5 ~votes ~strategy:Strategy.local_lex ~worker
          W.Flights.instance
      in
      Alcotest.(check bool)
        (Printf.sprintf "votes=%d bit-identical" votes)
        true
        (Smoke.outcome_equal o.Crowd.session reference);
      Alcotest.(check int) "paid = questions * votes"
        (o.Crowd.questions * votes) o.Crowd.paid_labels;
      Alcotest.(check int) "no flips" 0 o.Crowd.majority_flips)
    [ 1; 3; 5 ]

let test_teaching_error_paths () =
  let classes =
    Sigclass.of_signatures
      [ partition "{0}{1}{2}"; partition "{0,1}{2}"; partition "{0,1,2}" ]
  in
  (* arity mismatch between the goal and the signatures *)
  expect_invalid_arg "is_teaching_set arity mismatch" (fun () ->
      Teaching.is_teaching_set ~goal:(partition "{0}{1}") classes [ 0; 1 ]);
  expect_invalid_arg "greedy arity mismatch" (fun () ->
      Teaching.greedy ~goal:(partition "{0}{1}") classes);
  (* out-of-range class index *)
  expect_invalid_arg "bad class index" (fun () ->
      Teaching.is_teaching_set ~goal:(partition "{0,1}{2}") classes [ 7 ]);
  (* the contradictory-label raise the teaching code defends with *)
  (match
     State.add_exn
       (State.add_exn (State.create 3) State.Pos (partition "{0,1}{2}"))
       State.Neg (partition "{0,1,2}")
   with
  | exception Invalid_argument m ->
    Alcotest.(check string) "pinned add_exn message"
      "State.add_exn: contradictory label" m
  | _ -> Alcotest.fail "contradictory label accepted")

let gen_partition_sized n =
  QCheck.Gen.(
    let rec build i maxv acc =
      if i >= n then return (P.of_rgs (Array.of_list (List.rev acc)))
      else
        let* v = int_bound (min (maxv + 1) (n - 1)) in
        build (i + 1) (max maxv v) (v :: acc)
    in
    build 0 (-1) [])

let prop_greedy_vs_exact_minimum =
  (* When the exhaustive search finds a minimum, it must be a valid
     teaching set no larger than greedy's — and greedy's must be valid
     too.  (The reverse bound is what makes greedy a useful upper
     estimate of teaching dimension.) *)
  qtest ~count:60 "exact minimum teaches and bounds greedy from below"
    (QCheck.make
       ~print:(fun (g, sigs) ->
         P.to_string g ^ " / " ^ string_of_int (List.length sigs))
       QCheck.Gen.(
         let* goal = gen_partition_sized 4 in
         let* sigs = list_size (int_range 1 8) (gen_partition_sized 4) in
         return (goal, sigs)))
    (fun (goal, sigs) ->
      let classes = Sigclass.of_signatures sigs in
      let greedy = Teaching.greedy ~goal classes in
      if not (Teaching.is_teaching_set ~goal classes (List.map fst greedy))
      then QCheck.Test.fail_report "greedy lesson does not teach";
      match Teaching.exact_minimum ~max_size:8 ~goal classes with
      | None -> QCheck.Test.fail_report "no minimum up to the class count"
      | Some minimum ->
        Teaching.is_teaching_set ~goal classes (List.map fst minimum)
        && List.length minimum <= List.length greedy)

(* ------------------------------------------------------------------ *)
(* Coordinator: the round state machine, hand-driven clock             *)

let cfg ?(votes = 3) ?(timeout = 10.) ?(weighted = false) () =
  { Coordinator.votes; timeout; weighted }

let test_coordinator_validation () =
  List.iter
    (fun votes ->
      match Coordinator.create ~now:0. (cfg ~votes ()) with
      | exception Invalid_argument m ->
        Alcotest.(check string) "pinned votes message"
          "Coordinator: votes must be odd and positive" m
      | _ -> Alcotest.failf "votes=%d accepted" votes)
    [ 0; 2; -1 ];
  match Coordinator.create ~now:0. (cfg ~timeout:0. ()) with
  | exception Invalid_argument m ->
    Alcotest.(check string) "pinned timeout message"
      "Coordinator: timeout must be positive" m
  | _ -> Alcotest.fail "timeout=0 accepted"

let attach3 co = (Coordinator.attach co, Coordinator.attach co, Coordinator.attach co)

let test_coordinator_quorum_close () =
  let co = Coordinator.create ~now:0. (cfg ()) in
  let a, b, c = attach3 co in
  Alcotest.(check int) "quorum" 3 (Coordinator.quorum co);
  Alcotest.(check int) "round starts at 1" 1 (Coordinator.round co);
  Alcotest.(check bool) "unknown labeler" true
    (Coordinator.vote ~now:1. co ~labeler:99 ~round:1 ~label:State.Pos
    = `Unknown);
  (match Coordinator.vote ~now:1. co ~labeler:a ~round:1 ~label:State.Pos with
  | `Counted Coordinator.Wait -> ()
  | _ -> Alcotest.fail "first ballot should count and wait");
  (* duplicate and wrong-round ballots are stale, not errors *)
  Alcotest.(check bool) "duplicate is stale" true
    (Coordinator.vote ~now:1. co ~labeler:a ~round:1 ~label:State.Neg
    = `Stale);
  Alcotest.(check bool) "wrong round is stale" true
    (Coordinator.vote ~now:1. co ~labeler:b ~round:7 ~label:State.Pos
    = `Stale);
  (match Coordinator.vote ~now:2. co ~labeler:b ~round:1 ~label:State.Neg with
  | `Counted Coordinator.Wait -> ()
  | _ -> Alcotest.fail "second ballot should count and wait");
  (match Coordinator.vote ~now:3. co ~labeler:c ~round:1 ~label:State.Pos with
  | `Counted (Coordinator.Aggregate State.Pos) -> ()
  | _ -> Alcotest.fail "quorum ballot should close 2-1 for +");
  (* the service journals the aggregate, then reports back *)
  Coordinator.absorbed ~now:3. co State.Pos;
  Alcotest.(check int) "round bumped" 2 (Coordinator.round co);
  let st = Coordinator.stats co in
  Alcotest.(check int) "one round closed" 1 st.Pr.rounds;
  Alcotest.(check int) "three labels paid" 3 st.Pr.paid_labels;
  Alcotest.(check int) "the dissenter was overruled" 1 st.Pr.majority_flips;
  Alcotest.(check int) "no timeouts" 0 st.Pr.timeouts;
  Alcotest.(check (pair int int)) "dissenter's accuracy evidence" (0, 1)
    (Coordinator.accuracy co b);
  Alcotest.(check (pair int int)) "agreeing labeler credited" (1, 1)
    (Coordinator.accuracy co a)

let test_coordinator_deadline () =
  let co = Coordinator.create ~now:0. (cfg ~votes:5 ~timeout:10. ()) in
  let a, b, _ = attach3 co in
  Alcotest.(check bool) "before the deadline: wait" true
    (Coordinator.expire ~now:5. co = Coordinator.Wait);
  (* no ballots at the deadline: silently reset, same round *)
  Alcotest.(check bool) "empty round resets" true
    (Coordinator.expire ~now:11. co = Coordinator.Wait);
  Alcotest.(check int) "round unchanged" 1 (Coordinator.round co);
  ignore (Coordinator.vote ~now:12. co ~labeler:a ~round:1 ~label:State.Neg);
  ignore (Coordinator.vote ~now:13. co ~labeler:b ~round:1 ~label:State.Neg);
  (* two of five ballots, decisive tally: the deadline closes short *)
  (match Coordinator.expire ~now:22. co with
  | Coordinator.Aggregate State.Neg -> ()
  | _ -> Alcotest.fail "decisive-at-deadline should close short");
  Coordinator.absorbed ~now:22. co State.Neg;
  let st = Coordinator.stats co in
  Alcotest.(check int) "timeout counted" 1 st.Pr.timeouts;
  Alcotest.(check int) "two labels paid" 2 st.Pr.paid_labels;
  Alcotest.(check int) "unanimous: no flip" 0 st.Pr.majority_flips;
  (* tied at the deadline: re-ask, ballots discarded *)
  ignore (Coordinator.vote ~now:23. co ~labeler:a ~round:2 ~label:State.Pos);
  ignore (Coordinator.vote ~now:24. co ~labeler:b ~round:2 ~label:State.Neg);
  Alcotest.(check bool) "tied-at-deadline waits" true
    (Coordinator.expire ~now:40. co = Coordinator.Wait);
  Alcotest.(check int) "tie re-asks a fresh round" 3 (Coordinator.round co);
  let st = Coordinator.stats co in
  Alcotest.(check int) "re-ask counted" 1 st.Pr.re_asks;
  Alcotest.(check int) "discarded ballots are not paid" 2 st.Pr.paid_labels

let test_coordinator_rejected_reasks () =
  let co = Coordinator.create ~now:0. (cfg ~votes:1 ()) in
  let a = Coordinator.attach co in
  (match Coordinator.vote ~now:1. co ~labeler:a ~round:1 ~label:State.Pos with
  | `Counted (Coordinator.Aggregate State.Pos) -> ()
  | _ -> Alcotest.fail "singleton quorum closes at once");
  Coordinator.rejected ~now:1. co;
  Alcotest.(check int) "rejection re-asks" 2 (Coordinator.round co);
  let st = Coordinator.stats co in
  Alcotest.(check int) "nothing paid for a rejected aggregate" 0
    st.Pr.paid_labels;
  Alcotest.(check int) "no round closed" 0 st.Pr.rounds;
  Alcotest.(check int) "re-ask counted" 1 st.Pr.re_asks;
  Alcotest.(check (pair int int)) "no accuracy evidence either" (0, 0)
    (Coordinator.accuracy co a)

let test_coordinator_weighted_uniform () =
  (* Fresh labelers all weigh 1/2, so the weighted 3-2 split must elect
     the count majority exactly — the Votes bit-identity surfacing at
     the coordinator level. *)
  let co = Coordinator.create ~now:0. (cfg ~votes:5 ~weighted:true ()) in
  let ids = Array.init 5 (fun _ -> Coordinator.attach co) in
  let label i = if i < 3 then State.Pos else State.Neg in
  let closed = ref None in
  Array.iteri
    (fun i l ->
      match
        Coordinator.vote ~now:1. co ~labeler:l ~round:1 ~label:(label i)
      with
      | `Counted (Coordinator.Aggregate lab) -> closed := Some lab
      | `Counted Coordinator.Wait -> ()
      | _ -> Alcotest.fail "ballot refused")
    ids;
  Alcotest.(check bool) "weighted uniform elects the count majority" true
    (!closed = Some State.Pos)

(* ------------------------------------------------------------------ *)
(* Service: the crowd protocol in-process                              *)

let synth_source seed =
  Pr.Synthetic { n_attrs = 5; n_tuples = 40; domain = 8; goal_rank = 2; seed }

let goal_of seed =
  (W.Synthetic.generate (Smoke.synthetic_params seed)).W.Synthetic.goal

let reference_run ~seed ~strategy =
  let inst = W.Synthetic.generate (Smoke.synthetic_params seed) in
  let strategy =
    match Strategy.of_string strategy with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  Session.run ~seed ~strategy
    ~oracle:(Oracle.of_goal inst.W.Synthetic.goal)
    inst.W.Synthetic.relation

let start_synth service ~seed ~strategy =
  match
    Service.handle service
      (Pr.Start_session { source = synth_source seed; strategy; seed })
  with
  | Pr.Started { session; _ } -> session
  | other -> Alcotest.failf "start: %s" (Pr.response_to_string other)

let crowd_config ?(weighted = false) votes =
  { Coordinator.votes; timeout = 3600.; weighted }

(* Drive one crowd session in-process: each labeler [k] draws its own
   label from [oracles.(k)] — exactly one draw per round it sees, fresh
   draws whenever a round is re-asked.  Returns when the session has
   converged; [max_rounds] guards against a livelocked grid cell. *)
let drive_crowd_session ?(max_rounds = 5000) service session oracles =
  let labelers =
    Array.map
      (fun _ ->
        match Service.handle service (Pr.Labeler_attach { session }) with
        | Pr.Labeler_attached { labeler; _ } -> labeler
        | other -> failwith ("attach: " ^ Pr.response_to_string other))
      oracles
  in
  let rec loop n =
    if n > max_rounds then failwith "crowd session did not converge";
    match
      Service.handle service
        (Pr.Labeler_poll { session; labeler = labelers.(0) })
    with
    | Pr.Crowd_question { question = None; _ } -> ()
    | Pr.Crowd_question { round; question = Some { Pr.sg; _ } } ->
      Array.iteri
        (fun k l ->
          let label = Oracle.label oracles.(k) sg in
          match
            Service.handle service (Pr.Vote { session; labeler = l; round; label })
          with
          | Pr.Vote_ok _ -> ()
          | other -> failwith ("vote: " ^ Pr.response_to_string other))
        labelers;
      loop (n + 1)
    | other -> failwith ("poll: " ^ Pr.response_to_string other)
  in
  loop 0;
  let stats =
    match Service.handle service (Pr.Crowd_stats { session }) with
    | Pr.Crowd_info s -> s
    | other -> failwith ("stats: " ^ Pr.response_to_string other)
  in
  let outcome =
    match Service.handle service (Pr.Result { session }) with
    | Pr.Outcome o -> o
    | other -> failwith ("result: " ^ Pr.response_to_string other)
  in
  (outcome, stats)

let test_pinned_guard_strings () =
  (* Without crowd labeling, every crowd message is refused with the
     documented reason. *)
  let plain = Service.create () in
  let s = start_synth plain ~seed:3 ~strategy:"random" in
  let expect_bad req expected =
    match Service.handle plain req with
    | Pr.Failed (Pr.Bad_request _ as e) ->
      Alcotest.(check string) expected expected (Pr.error_to_string e)
    | other -> Alcotest.failf "accepted: %s" (Pr.response_to_string other)
  in
  let disabled =
    "bad request: crowd labeling disabled (start the server with --votes)"
  in
  expect_bad (Pr.Labeler_attach { session = s }) disabled;
  expect_bad (Pr.Labeler_poll { session = s; labeler = 1 }) disabled;
  expect_bad
    (Pr.Vote { session = s; labeler = 1; round = 1; label = State.Pos })
    disabled;
  expect_bad (Pr.Crowd_stats { session = s }) disabled;
  (* With crowd labeling, direct answers and undo are refused. *)
  let crowd = Service.create ~crowd:(crowd_config 3) () in
  let s = start_synth crowd ~seed:3 ~strategy:"random" in
  let expect_bad req expected =
    match Service.handle crowd req with
    | Pr.Failed (Pr.Bad_request _ as e) ->
      Alcotest.(check string) expected expected (Pr.error_to_string e)
    | other -> Alcotest.failf "accepted: %s" (Pr.response_to_string other)
  in
  expect_bad
    (Pr.Answer { session = s; cls = 0; label = State.Pos })
    "bad request: session is crowd-labeled: answers arrive by vote";
  expect_bad (Pr.Undo { session = s })
    "bad request: session is crowd-labeled: undo is disabled";
  (* and an unregistered labeler gets the typed error *)
  match Service.handle crowd (Pr.Labeler_poll { session = s; labeler = 42 }) with
  | Pr.Failed (Pr.Unknown_labeler 42 as e) ->
    Alcotest.(check string) "pinned unknown-labeler string"
      "unknown labeler 42" (Pr.error_to_string e)
  | other -> Alcotest.failf "poll accepted: %s" (Pr.response_to_string other)

let prop_perfect_crowd_bit_identical =
  (* The headline property: a perfect crowd of any odd size — weighted
     or not — leaves the wire-visible session bit-identical to the
     in-process [Session.run] with the same seed and strategy, because
     every aggregate is the goal label. *)
  qtest ~count:40 "perfect crowd = Session.run, any odd quorum"
    (QCheck.make
       ~print:(fun (seed, votes, weighted, strategy) ->
         Printf.sprintf "seed=%d votes=%d weighted=%b %s" seed votes weighted
           strategy)
       QCheck.Gen.(
         let* seed = int_range 1 150 in
         let* votes = oneofl [ 1; 3; 5 ] in
         let* weighted = bool in
         let* strategy = oneofl [ "random"; "lookahead-entropy" ] in
         return (seed, votes, weighted, strategy)))
    (fun (seed, votes, weighted, strategy) ->
      let service = Service.create ~crowd:(crowd_config ~weighted votes) () in
      let s = start_synth service ~seed ~strategy in
      let oracles =
        Array.init votes (fun _ -> Oracle.of_goal (goal_of seed))
      in
      let outcome, stats = drive_crowd_session service s oracles in
      if not (Smoke.outcome_equal outcome (reference_run ~seed ~strategy))
      then QCheck.Test.fail_report "crowd outcome diverges from Session.run";
      stats.Pr.paid_labels = votes * stats.Pr.rounds
      && stats.Pr.rounds = outcome.Session.interactions
      && stats.Pr.majority_flips = 0
      && stats.Pr.timeouts = 0
      && stats.Pr.re_asks = 0
      && stats.Pr.labelers = votes)

(* ------------------------------------------------------------------ *)
(* Convergence under noise: the error-rate x votes grid                *)

let noisy_oracles ~seed ~votes ~error =
  Array.init votes (fun k ->
      let goal = Oracle.of_goal (goal_of seed) in
      if error = 0. then goal
      else Oracle.noisy ~seed:((100 * seed) + k + 1) ~flip_probability:error goal)

(* One grid cell: does the crowd infer the goal predicate?  Everything
   is seeded, so each cell is deterministic and replayable. *)
let converges ~seed ~votes ~error ~weighted =
  let service = Service.create ~crowd:(crowd_config ~weighted votes) () in
  let s = start_synth service ~seed ~strategy:"lookahead-entropy" in
  let outcome, stats =
    drive_crowd_session service s (noisy_oracles ~seed ~votes ~error)
  in
  let reference = reference_run ~seed ~strategy:"lookahead-entropy" in
  (P.equal outcome.Session.query reference.Session.query, stats)

let test_convergence_grid () =
  let seeds = [ 3; 11 ] in
  let cells = ref [] in
  List.iter
    (fun seed ->
      List.iter
        (fun error ->
          List.iter
            (fun votes ->
              List.iter
                (fun weighted ->
                  let ok, stats = converges ~seed ~votes ~error ~weighted in
                  cells := (seed, error, votes, weighted, ok, stats) :: !cells)
                [ false; true ])
            [ 1; 3; 5 ])
        [ 0.; 0.1; 0.2 ])
    seeds;
  List.iter
    (fun (seed, error, votes, weighted, ok, (stats : Pr.crowd_stats)) ->
      let name =
        Printf.sprintf "seed=%d error=%g votes=%d weighted=%b" seed error
          votes weighted
      in
      (* noiseless cells must converge whatever the quorum *)
      if error = 0. then begin
        Alcotest.(check bool) (name ^ ": noiseless converges") true ok;
        Alcotest.(check int) (name ^ ": noiseless never re-asks") 0
          stats.Pr.re_asks
      end;
      (* the acceptance bar: error <= 0.2 with votes=5 always infers the
         goal predicate, on every seeded run of the grid *)
      if votes = 5 then
        Alcotest.(check bool) (name ^ ": votes=5 rides out the noise") true ok;
      Alcotest.(check int) (name ^ ": every closed round paid its quorum")
        (votes * stats.Pr.rounds) stats.Pr.paid_labels)
    !cells;
  (* noise must actually have bitten somewhere: the harness is not
     accidentally running perfect labelers *)
  let flips =
    List.fold_left
      (fun acc (_, _, _, _, _, (s : Pr.crowd_stats)) ->
        acc + s.Pr.majority_flips)
      0 !cells
  in
  Alcotest.(check bool) "seeded errors produced dissenting ballots" true
    (flips > 0)

(* ------------------------------------------------------------------ *)
(* Recovery: the journal holds only aggregates; labelers re-attach     *)

let test_crowd_recovery_reattach () =
  let fs = Memfs.create () in
  let io = Memfs.io fs in
  let seed = 5 in
  let open_store () =
    match Store.open_dir ~io "/data" with
    | Ok v -> v
    | Error e -> Alcotest.failf "open_dir: %s" e
  in
  let store, _ = open_store () in
  let service =
    Service.create ~persist:(Store.record store) ~crowd:(crowd_config 3) ()
  in
  let s = start_synth service ~seed ~strategy:"lookahead-entropy" in
  let oracles = Array.init 3 (fun _ -> Oracle.of_goal (goal_of seed)) in
  (* answer the first three rounds by vote, then "crash" *)
  let labelers =
    Array.map
      (fun _ ->
        match Service.handle service (Pr.Labeler_attach { session = s }) with
        | Pr.Labeler_attached { labeler; _ } -> labeler
        | other -> Alcotest.failf "attach: %s" (Pr.response_to_string other))
      oracles
  in
  for _ = 1 to 3 do
    match
      Service.handle service (Pr.Labeler_poll { session = s; labeler = labelers.(0) })
    with
    | Pr.Crowd_question { round; question = Some { Pr.sg; _ } } ->
      Array.iteri
        (fun k l ->
          let label = Oracle.label oracles.(k) sg in
          ignore
            (Service.handle service (Pr.Vote { session = s; labeler = l; round; label })))
        labelers
    | other -> Alcotest.failf "poll: %s" (Pr.response_to_string other)
  done;
  Store.close store;
  (* restart over the same disk into a fresh crowd service *)
  let store', recovered = open_store () in
  let service' =
    Service.create ~persist:(Store.record store') ~crowd:(crowd_config 3) ()
  in
  (match Service.restore service' recovered with
  | Ok n -> Alcotest.(check int) "one session restored" 1 n
  | Error e -> Alcotest.failf "restore: %s" e);
  let id =
    match recovered.Recovery.sessions with
    | [ sess ] ->
      Alcotest.(check int) "three aggregates journaled, nothing else" 3
        (List.length sess.Recovery.steps);
      sess.Recovery.id
    | l -> Alcotest.failf "%d sessions recovered" (List.length l)
  in
  (* the coordinator died with the process: old labeler ids are gone *)
  (match
     Service.handle service' (Pr.Labeler_poll { session = id; labeler = labelers.(0) })
   with
  | Pr.Failed (Pr.Unknown_labeler _) -> ()
  | other ->
    Alcotest.failf "stale labeler survived recovery: %s"
      (Pr.response_to_string other));
  (* fresh labelers attach and finish the session bit-identically *)
  let outcome, stats = drive_crowd_session service' id oracles in
  Alcotest.(check bool) "resumed crowd session bit-identical" true
    (Smoke.outcome_equal outcome
       (reference_run ~seed ~strategy:"lookahead-entropy"));
  Alcotest.(check int) "replayed rounds are not re-counted"
    (outcome.Session.interactions - 3) stats.Pr.rounds;
  Store.close store'

(* ------------------------------------------------------------------ *)
(* The real wire: crowd smoke and the stalled-reply regression         *)

let fresh_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jim-crowd-%d-%d.sock" (Unix.getpid ()) !counter)

let test_wire_crowd_smoke () =
  let address = Wire.Unix_path (fresh_socket ()) in
  let service = Service.create ~crowd:(crowd_config 3) () in
  let server = Wire.serve ~threads:16 service address in
  Fun.protect
    ~finally:(fun () -> Wire.shutdown server)
    (fun () ->
      let r =
        Smoke.crowd_run ~address ~seed:11 ~strategy:"lookahead-entropy"
          ~labelers:(List.init 3 Smoke.perfect_labeler)
          ()
      in
      if not r.Smoke.creport.Smoke.ok then
        Alcotest.failf "crowd smoke failed: %s" r.Smoke.creport.Smoke.detail;
      match r.Smoke.crowd with
      | None -> Alcotest.fail "no crowd stats harvested"
      | Some st ->
        Alcotest.(check int) "3 labelers attached" 3 st.Pr.labelers;
        Alcotest.(check bool) "rounds closed" true (st.Pr.rounds > 0);
        Alcotest.(check int) "paid = 3 per round" (3 * st.Pr.rounds)
          st.Pr.paid_labels;
        Alcotest.(check int) "perfect crowd never flips" 0
          st.Pr.majority_flips)

let test_stalled_reply_is_dropped () =
  (* The receive-timeout regression: a proxy that stalls every reply
     long past the client's receive timeout must classify as a transport
     drop — never as divergence, never as a hang. *)
  let upstream = Wire.Unix_path (fresh_socket ()) in
  let listen = Wire.Unix_path (fresh_socket ()) in
  let service = Service.create () in
  let server = Wire.serve ~threads:4 service upstream in
  let plan =
    match Chaos.plan_of_string "stall=1,delay-ms=300" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let proxy =
    match Chaos.start ~plan ~listen ~upstream () with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Chaos.stop proxy);
      Wire.shutdown server)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let r =
        match Smoke.run ~clients:1 ~receive_timeout:0.3 ~address:listen () with
        | [ r ] -> r
        | rs -> Alcotest.failf "%d reports for one client" (List.length rs)
      in
      Alcotest.(check bool) "classified as a transport drop" true
        r.Smoke.dropped;
      Alcotest.(check bool) "not reported ok" false r.Smoke.ok;
      (* and it was the timeout that fired, not a 3 s stall ridden out *)
      Alcotest.(check bool) "timed out promptly" true
        (Unix.gettimeofday () -. t0 < 2.5))

let () =
  Alcotest.run "crowd"
    [
      ( "votes",
        [
          Alcotest.test_case "tally validation and ties" `Quick
            test_tally_validation;
          prop_uniform_weights_equal_majority;
          Alcotest.test_case "Laplace accuracy estimator" `Quick
            test_estimator_laplace;
        ] );
      ( "core error paths",
        [
          Alcotest.test_case "Crowd.run rejects even/non-positive votes"
            `Quick test_crowd_votes_validation;
          Alcotest.test_case "perfect worker = Session.run, any redundancy"
            `Quick test_crowd_perfect_worker_identity;
          Alcotest.test_case "Teaching raises on malformed input" `Quick
            test_teaching_error_paths;
          prop_greedy_vs_exact_minimum;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "config validation" `Quick
            test_coordinator_validation;
          Alcotest.test_case "quorum close, stale ballots, accuracy" `Quick
            test_coordinator_quorum_close;
          Alcotest.test_case "straggler deadline: reset, close short, tie"
            `Quick test_coordinator_deadline;
          Alcotest.test_case "rejected aggregate re-asks unpaid" `Quick
            test_coordinator_rejected_reasks;
          Alcotest.test_case "weighted uniform = count majority" `Quick
            test_coordinator_weighted_uniform;
        ] );
      ( "service",
        [
          Alcotest.test_case "pinned guard strings" `Quick
            test_pinned_guard_strings;
          prop_perfect_crowd_bit_identical;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "error-rate x votes grid" `Slow
            test_convergence_grid;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "journal holds aggregates only; re-attach"
            `Quick test_crowd_recovery_reattach;
        ] );
      ( "wire",
        [
          Alcotest.test_case "crowd smoke over the socket" `Quick
            test_wire_crowd_smoke;
          Alcotest.test_case "stalled reply classifies as dropped" `Quick
            test_stalled_reply_is_dropped;
        ] );
    ]
