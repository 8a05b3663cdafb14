module Pr = Jim_api.Protocol
module Service = Jim_server.Service
module Smoke = Jim_server.Smoke
module Store = Jim_store.Store
module Recovery = Jim_store.Recovery
module Journal = Jim_store.Journal
module W = Jim_workloads
open Jim_core

exception Divergence of string

let () =
  Printexc.register_printer (function
    | Divergence m -> Some ("Jim_fault.Sweep.Divergence: " ^ m)
    | _ -> None)

let div fmt = Printf.ksprintf (fun m -> raise (Divergence m)) fmt

type spec = {
  seed : int;
  strategies : string list;
  sessions : int;
  snapshot_every : int;
  commit_window : float;
}

let default =
  {
    seed = 41;
    strategies = [ "lookahead-entropy"; "random" ];
    sessions = 7;
    snapshot_every = 16;
    commit_window = 0.;
  }

type stats = { events : int; points : int; runs : int; images : int }

let data_dir = "/data"

(* ------------------------------------------------------------------ *)
(* The workload: the server smoke test's synthetic instances, driven   *)
(* in-process (no sockets) so a run costs microseconds.                *)

let seed_of spec i = spec.seed + i
let strategy_of spec i = List.nth spec.strategies (i mod List.length spec.strategies)

(* Everything derivable from the spec alone, shared across the hundreds
   of faulted runs of a sweep. *)
type env = {
  spec : spec;
  oracles : Oracle.t array;
  expected : Session.outcome array;
  catalog : Jim_catalog.Catalog.t option;
      (* when set, every service of the sweep — the faulted runs and the
         recovery verifications — resolves instances through this one
         shared catalog, so recovery replays warm-start off shared
         entries exactly as a long-lived server would *)
}

let env_of ?catalog spec =
  if spec.sessions < 1 then invalid_arg "Sweep: sessions";
  if spec.strategies = [] then invalid_arg "Sweep: strategies";
  let oracle i =
    Oracle.of_goal
      (W.Synthetic.generate (Smoke.synthetic_params (seed_of spec i))).W.Synthetic.goal
  in
  let expected i =
    let inst = W.Synthetic.generate (Smoke.synthetic_params (seed_of spec i)) in
    let strategy =
      match Strategy.of_string (strategy_of spec i) with
      | Ok s -> s
      | Error m -> div "bad strategy %S: %s" (strategy_of spec i) m
    in
    Session.run ~seed:(seed_of spec i) ~strategy
      ~oracle:(Oracle.of_goal inst.W.Synthetic.goal)
      inst.W.Synthetic.relation
  in
  {
    spec;
    oracles = Array.init spec.sessions oracle;
    expected = Array.init spec.sessions expected;
    catalog;
  }

(* What the (simulated) client knows was acknowledged before the fault —
   the ground truth every recovery is checked against. *)
type progress = {
  ids : int array;  (** session id per index; [-1] until Started acked *)
  started : bool array;
  acked : int array;  (** acknowledged answers per index *)
}

let fresh_progress spec =
  {
    ids = Array.make spec.sessions (-1);
    started = Array.make spec.sessions false;
    acked = Array.make spec.sessions 0;
  }

let events_of progress =
  Array.fold_left ( + ) 0 progress.acked
  + Array.fold_left (fun n s -> if s then n + 1 else n) 0 progress.started

(* Service calls.  A store-level fault propagates as an exception
   ([Service.handle] does not catch); an unexpected *reply* is a
   divergence — the protocol broke without the disk breaking. *)

let start_session env service progress i =
  let seed = seed_of env.spec i in
  match
    Service.handle service
      (Pr.Start_session
         { source = Smoke.synthetic_source seed; strategy = strategy_of env.spec i; seed })
  with
  | Pr.Started { session; _ } ->
    progress.ids.(i) <- session;
    progress.started.(i) <- true
  | other -> div "start (seed %d): %s" seed (Pr.response_to_string other)

(* Answer one question; [false] when the session has converged. *)
let answer_one service oracle id =
  match Service.handle service (Pr.Get_question { session = id }) with
  | Pr.Question None -> false
  | Pr.Question (Some { Pr.cls; sg; _ }) -> (
    match
      Service.handle service
        (Pr.Answer { session = id; cls; label = Oracle.label oracle sg })
    with
    | Pr.Answered _ -> true
    | other -> div "answer (session %d): %s" id (Pr.response_to_string other))
  | other -> div "question (session %d): %s" id (Pr.response_to_string other)

let result_of service id =
  match Service.handle service (Pr.Result { session = id }) with
  | Pr.Outcome o -> o
  | other -> div "result (session %d): %s" id (Pr.response_to_string other)

let labeled_of service id =
  match Service.handle service (Pr.Stats { session = id }) with
  | Pr.Session_stats st -> st.Pr.labeled
  | other -> div "stats (session %d): %s" id (Pr.response_to_string other)

(* Start every session, then round-robin one answer at a time — so the
   journal interleaves sessions and a crash point usually cuts several
   sessions at different depths. *)
let run_workload env service progress =
  for i = 0 to env.spec.sessions - 1 do
    start_session env service progress i
  done;
  let live = Array.make env.spec.sessions true in
  let continue = ref true in
  while !continue do
    continue := false;
    for i = 0 to env.spec.sessions - 1 do
      if live.(i) then
        if answer_one service env.oracles.(i) progress.ids.(i) then begin
          progress.acked.(i) <- progress.acked.(i) + 1;
          continue := true
        end
        else live.(i) <- false
    done
  done

(* ------------------------------------------------------------------ *)
(* Faulted runs and their verification                                 *)

(* The process "dying": a power cut, an injected I/O error surfacing
   through the store, the journal refusing appends after poisoning, or a
   checkpoint abort ([Store] wraps failed snapshot writes in [Failure]).
   Anything else — notably [Divergence] — propagates. *)
let interrupted = function
  | Memfs.Power_cut | Unix.Unix_error _ | Journal.Poisoned | Failure _ -> true
  | _ -> false

let open_on ?(fsync = true) env fs =
  Store.open_dir ~fsync ~commit_window:env.spec.commit_window
    ~snapshot_every:env.spec.snapshot_every ~io:(Memfs.io fs) data_dir

(* Run the workload against [fs]; returns [`Completed] or
   [`Interrupted], with [progress] holding exactly what was acked. *)
let drive env fs progress =
  try
    (match open_on env fs with
    | Error m -> div "open_dir (fresh): %s" m
    | Ok (store, _) ->
      let service =
        Service.create ?catalog:env.catalog ~persist:(Store.record store) ()
      in
      run_workload env service progress;
      Store.close store);
    `Completed
  with e when interrupted e -> `Interrupted

(* The three-part contract, against recovered state — from a post-crash
   disk image or from a promoted replication standby. *)
let verify_recovered env progress (store, recovered) =
  let service =
    Service.create ?catalog:env.catalog ~persist:(Store.record store) ()
  in
  (match Service.restore service recovered with
  | Ok _ -> ()
  | Error m -> div "restore refused: %s" m);
  let find_seed seed =
    List.find_opt
      (fun s -> s.Recovery.seed = seed)
      recovered.Recovery.sessions
  in
  (* 1. acked Starteds survived, with answers in [acked, acked + 1] *)
  Array.iteri
    (fun i started ->
      if started then
        match find_seed (seed_of env.spec i) with
        | None ->
          div "session %d (seed %d) lost: Started was acknowledged" i
            (seed_of env.spec i)
        | Some s ->
          let labeled = labeled_of service s.Recovery.id in
          if labeled < progress.acked.(i) then
            div "session %d: %d answers acked, only %d recovered" i
              progress.acked.(i) labeled;
          if labeled > progress.acked.(i) + 1 then
            div "session %d: %d answers recovered, acked %d + at most 1 in flight"
              i labeled progress.acked.(i))
    progress.started;
  (* 2. every recovered session (acked or in-flight) resumes to the
     bit-identical outcome of an uninterrupted run *)
  List.iter
    (fun s ->
      let i = s.Recovery.seed - env.spec.seed in
      if i < 0 || i >= env.spec.sessions then
        div "recovered a session with unknown seed %d" s.Recovery.seed;
      let id = s.Recovery.id in
      while answer_one service env.oracles.(i) id do
        ()
      done;
      if not (Smoke.outcome_equal (result_of service id) env.expected.(i))
      then div "session %d (seed %d): resumed outcome diverges" i s.Recovery.seed)
    recovered.Recovery.sessions;
  Store.close store

(* The three-part contract, against one post-crash disk image. *)
let verify_image env progress fs =
  match open_on ~fsync:false env fs with
  | Error m -> div "recovery refused: %s" m
  | Ok recovered -> verify_recovered env progress recovered

(* One faulted run + both disk images verified.  A violation names the
   plan that provoked it — the sweep's whole reproduction recipe. *)
let check_plan env plan =
  let fs = Memfs.create ~plan () in
  let progress = fresh_progress env.spec in
  let outcome = drive env fs progress in
  let under what f =
    try f () with
    | Divergence m -> div "[%s, %s image] %s" (Plan.to_string plan) what m
  in
  under "durable" (fun () -> verify_image env progress (Memfs.durable_image fs));
  under "flushed" (fun () -> verify_image env progress (Memfs.flushed_image fs));
  outcome

(* Uninterrupted reference under [base] (chunking only, never faults):
   gives the ordinal/byte totals the sweeps enumerate, and pins the live
   outcomes to the in-process oracle runs. *)
let reference env base =
  let fs = Memfs.create ~plan:base () in
  let progress = fresh_progress env.spec in
  (match open_on env fs with
  | Error m -> div "reference open_dir: %s" m
  | Ok (store, _) ->
    let service =
      Service.create ?catalog:env.catalog ~persist:(Store.record store) ()
    in
    run_workload env service progress;
    Array.iteri
      (fun i id ->
        if not (Smoke.outcome_equal (result_of service id) env.expected.(i))
        then div "reference session %d diverges before any fault" i)
      progress.ids;
    Store.close store);
  (fs, progress)

let sweep_ordinals env ~check ~total ~stride ~plans_of =
  let points = ref 0 and runs = ref 0 and images = ref 0 in
  let n = ref 1 in
  while !n <= total do
    incr points;
    List.iter
      (fun plan ->
        ignore (check env plan);
        incr runs;
        images := !images + 2)
      (plans_of !n);
    n := !n + stride
  done;
  (!points, !runs, !images)

let stats_of progress (points, runs, images) =
  { events = events_of progress; points; runs; images }

let crash_sweep ?catalog ?chunk ?(stride = 1) ?(applied = [ 0; 3 ]) spec =
  if stride < 1 then invalid_arg "Sweep.crash_sweep: stride";
  let env = env_of ?catalog spec in
  let base = { Plan.none with write_chunk = chunk } in
  let fs, progress = reference env base in
  let counters =
    sweep_ordinals env ~check:check_plan ~total:(Memfs.writes fs) ~stride
      ~plans_of:(fun n ->
        List.map (fun a -> { base with Plan.crash_write = Some (n, a) }) applied)
  in
  stats_of progress counters

let fsync_sweep ?catalog ?(stride = 1) spec =
  if stride < 1 then invalid_arg "Sweep.fsync_sweep: stride";
  let env = env_of ?catalog spec in
  let fs, progress = reference env Plan.none in
  let counters =
    sweep_ordinals env ~check:check_plan ~total:(Memfs.fsyncs fs) ~stride
      ~plans_of:(fun n -> [ { Plan.none with fail_fsync = Some n } ])
  in
  stats_of progress counters

let write_error_sweep ?catalog ?(stride = 1) spec =
  if stride < 1 then invalid_arg "Sweep.write_error_sweep: stride";
  let env = env_of ?catalog spec in
  let fs, progress = reference env Plan.none in
  let counters =
    sweep_ordinals env ~check:check_plan ~total:(Memfs.writes fs) ~stride
      ~plans_of:(fun n -> [ { Plan.none with fail_write = Some n } ])
  in
  stats_of progress counters

let enospc_sweep ?catalog ?(points = 8) spec =
  if points < 1 then invalid_arg "Sweep.enospc_sweep: points";
  let env = env_of ?catalog spec in
  let fs, progress = reference env Plan.none in
  let total = Memfs.bytes_accepted fs in
  let runs = ref 0 and images = ref 0 in
  for j = 1 to points do
    (* Spread budgets over the run; the +1/+3 drift lands some of them
       mid-record rather than always on the same alignment. *)
    let budget = max 1 ((total * j / (points + 1)) + (j mod 4)) in
    ignore (check_plan env { Plan.none with enospc_after = Some budget });
    incr runs;
    images := !images + 2
  done;
  stats_of progress (points, !runs, !images)

let chunk_run ?catalog ~chunk spec =
  if chunk < 1 then invalid_arg "Sweep.chunk_run: chunk";
  let env = env_of ?catalog spec in
  let plan = { Plan.none with write_chunk = Some chunk } in
  (* [reference] both drives it and checks live outcomes; the images must
     then recover the completed sessions verbatim. *)
  let fs, progress = reference env plan in
  verify_image env progress (Memfs.durable_image fs);
  verify_image env progress (Memfs.flushed_image fs);
  stats_of progress (Memfs.writes fs, 1, 2)

(* ------------------------------------------------------------------ *)
(* Replicated pairs: primary + streaming standby, primary killed at    *)
(* every write ordinal, standby promoted and held to the contract.     *)

module Standby = Jim_shard.Standby
module Repl = Jim_shard.Repl

let standby_dir = "/standby"

(* One primary/standby pair: the primary runs on [fs] (possibly
   faulted), the standby on its own clean filesystem, attached through
   the in-process replication stream.  The persist hook is
   record-then-send, so an event reaches the standby only after it is
   durable on the primary — and the client is acked only after both.
   The standby filesystem is never faulted: the crash always hits the
   primary mid-record, before the send, which is exactly what makes
   "everything acked is on the standby" a checkable invariant. *)
let drive_pair env plan =
  let fs_b = Memfs.create () in
  let stb = Standby.create ~io:(Memfs.io fs_b) ~dir:standby_dir () in
  let fs_p = Memfs.create ~plan () in
  let progress = fresh_progress env.spec in
  let outcome =
    try
      (match open_on env fs_p with
      | Error m -> div "open_dir (fresh pair): %s" m
      | Ok (store, _) -> (
        match Repl.attach store (Repl.of_standby stb) with
        | Error m -> div "replication attach: %s" m
        | Ok repl ->
          let persist ev =
            Store.record store ev;
            Repl.send repl ev
          in
          let service = Service.create ?catalog:env.catalog ~persist () in
          run_workload env service progress;
          Store.close store));
      `Completed
    with e when interrupted e -> `Interrupted
  in
  (outcome, fs_p, stb, progress)

(* Promote the survivor and hold it to the same three-part contract a
   recovered disk image must meet: every acked event present, at most
   one in-flight beyond, every session resuming bit-identically. *)
let verify_pair env progress stb =
  match
    Standby.promote ~fsync:false ~snapshot_every:env.spec.snapshot_every stb
  with
  | Error m -> div "standby promotion refused: %s" m
  | Ok recovered -> verify_recovered env progress recovered

let replicated_sweep ?catalog ?(stride = 1) ?(applied = [ 0; 3 ]) spec =
  if stride < 1 then invalid_arg "Sweep.replicated_sweep: stride";
  let env = env_of ?catalog spec in
  (* Reference pair: no faults — pins the stream end-to-end (the
     promoted standby must resume every completed session verbatim) and
     counts the primary write ordinals the sweep enumerates. *)
  let outcome, fs_p, stb, progress = drive_pair env Plan.none in
  (match outcome with
  | `Completed -> ()
  | `Interrupted -> div "reference pair run interrupted without a fault");
  verify_pair env progress stb;
  let total = Memfs.writes fs_p in
  let points = ref 0 and runs = ref 0 and images = ref 0 in
  let n = ref 1 in
  while !n <= total do
    incr points;
    List.iter
      (fun a ->
        let plan = { Plan.none with crash_write = Some (!n, a) } in
        let _outcome, _fs, stb, prog = drive_pair env plan in
        (try verify_pair env prog stb
         with Divergence m ->
           div "[%s, promoted standby] %s" (Plan.to_string plan) m);
        incr runs;
        incr images)
      applied;
    n := !n + stride
  done;
  stats_of progress (!points, !runs, !images)

(* ------------------------------------------------------------------ *)
(* Crowd-labeled workload: the same sessions, answered by vote.        *)
(* Every session runs a [votes]-strong perfect crowd (unanimous goal   *)
(* labels), so each round's aggregate equals the oracle answer and the *)
(* reference outcomes stay those of [Session.run].  Only the decisive  *)
(* ballot touches the store (the absorbed aggregate, journaled as an   *)
(* ordinary Answered event); crash points therefore land exactly at    *)
(* aggregate-record boundaries — mid-vote-collection from the crowd's  *)
(* point of view.  Verification deliberately recovers into a service   *)
(* *without* crowd labeling: the journal must replay as plain answers, *)
(* proving no ballot or partial tally ever reached disk.               *)

module Coordinator = Jim_server.Coordinator

let crowd_config votes =
  (* A deadline the in-process run can never hit: rounds close by quorum
     only, so the ballot count per aggregate is exact. *)
  { Coordinator.votes; timeout = 3600.; weighted = false }

let check_votes who votes =
  if votes <= 0 || votes mod 2 = 0 then
    invalid_arg (who ^ ": votes must be odd and positive")

let crowd_attach service id votes =
  Array.init votes (fun _ ->
      match Service.handle service (Pr.Labeler_attach { session = id }) with
      | Pr.Labeler_attached { labeler; _ } -> labeler
      | other -> div "attach (session %d): %s" id (Pr.response_to_string other))

(* One voting round: poll for the question, then every labeler casts the
   goal label.  The quorum-th ballot must close the round (outcome on its
   ack); [false] when the session has converged. *)
let crowd_answer_one service oracle id labelers =
  match
    Service.handle service
      (Pr.Labeler_poll { session = id; labeler = labelers.(0) })
  with
  | Pr.Crowd_question { question = None; _ } -> false
  | Pr.Crowd_question { round; question = Some { Pr.sg; _ } } ->
    let label = Oracle.label oracle sg in
    let closed = ref false in
    Array.iter
      (fun l ->
        match
          Service.handle service
            (Pr.Vote { session = id; labeler = l; round; label })
        with
        | Pr.Vote_ok { outcome = Some _; _ } -> closed := true
        | Pr.Vote_ok _ -> ()
        | other -> div "vote (session %d): %s" id (Pr.response_to_string other))
      labelers;
    if not !closed then
      div "session %d: round %d open after %d unanimous ballots" id round
        (Array.length labelers);
    true
  | other -> div "poll (session %d): %s" id (Pr.response_to_string other)

(* As [run_workload], by vote: an "answer" is acked when the decisive
   ballot's reply carries the aggregate — i.e. after the journal write. *)
let run_crowd_workload env service ~votes progress =
  for i = 0 to env.spec.sessions - 1 do
    start_session env service progress i
  done;
  let labelers =
    Array.map (fun id -> crowd_attach service id votes) progress.ids
  in
  let live = Array.make env.spec.sessions true in
  let continue = ref true in
  while !continue do
    continue := false;
    for i = 0 to env.spec.sessions - 1 do
      if live.(i) then
        if
          crowd_answer_one service env.oracles.(i) progress.ids.(i)
            labelers.(i)
        then begin
          progress.acked.(i) <- progress.acked.(i) + 1;
          continue := true
        end
        else live.(i) <- false
    done
  done

let drive_crowd env ~votes fs progress =
  try
    (match open_on env fs with
    | Error m -> div "open_dir (fresh crowd): %s" m
    | Ok (store, _) ->
      let service =
        Service.create ?catalog:env.catalog ~persist:(Store.record store)
          ~crowd:(crowd_config votes) ()
      in
      run_crowd_workload env service ~votes progress;
      Store.close store);
    `Completed
  with e when interrupted e -> `Interrupted

(* The uninterrupted crowd reference doubles as the bit-identity proof:
   a perfect crowd's live outcomes must equal the noiseless in-process
   [Session.run] exactly. *)
let crowd_reference env ~votes base =
  let fs = Memfs.create ~plan:base () in
  let progress = fresh_progress env.spec in
  (match open_on env fs with
  | Error m -> div "crowd reference open_dir: %s" m
  | Ok (store, _) ->
    let service =
      Service.create ?catalog:env.catalog ~persist:(Store.record store)
        ~crowd:(crowd_config votes) ()
    in
    run_crowd_workload env service ~votes progress;
    Array.iteri
      (fun i id ->
        if not (Smoke.outcome_equal (result_of service id) env.expected.(i))
        then div "crowd reference session %d diverges before any fault" i)
      progress.ids;
    Store.close store);
  (fs, progress)

(* Faulted crowd run + both images verified — through [verify_image]'s
   plain (crowd-free) service, unchanged: the disk must look exactly as
   if the aggregates had been direct answers. *)
let check_crowd_plan env ~votes plan =
  let fs = Memfs.create ~plan () in
  let progress = fresh_progress env.spec in
  let outcome = drive_crowd env ~votes fs progress in
  let under what f =
    try f () with
    | Divergence m -> div "[%s, %s image] %s" (Plan.to_string plan) what m
  in
  under "durable" (fun () -> verify_image env progress (Memfs.durable_image fs));
  under "flushed" (fun () -> verify_image env progress (Memfs.flushed_image fs));
  outcome

let crowd_crash_sweep ?catalog ?chunk ?(stride = 1) ?(applied = [ 0; 3 ])
    ?(votes = 3) spec =
  if stride < 1 then invalid_arg "Sweep.crowd_crash_sweep: stride";
  check_votes "Sweep.crowd_crash_sweep" votes;
  let env = env_of ?catalog spec in
  let base = { Plan.none with write_chunk = chunk } in
  let fs, progress = crowd_reference env ~votes base in
  let counters =
    sweep_ordinals env
      ~check:(fun env plan -> check_crowd_plan env ~votes plan)
      ~total:(Memfs.writes fs) ~stride
      ~plans_of:(fun n ->
        List.map (fun a -> { base with Plan.crash_write = Some (n, a) }) applied)
  in
  stats_of progress counters

(* One fault-free primary/standby pair under the crowd workload: the
   replication stream carries only the aggregates, so the promoted
   standby must resume every session bit-identically with no crowd
   machinery of its own.  (Failover under faults is [replicated_sweep]'s
   job — the event stream is identical, crowd or not.) *)
let crowd_replicated_run ?catalog ?(votes = 3) spec =
  check_votes "Sweep.crowd_replicated_run" votes;
  let env = env_of ?catalog spec in
  let fs_b = Memfs.create () in
  let stb = Standby.create ~io:(Memfs.io fs_b) ~dir:standby_dir () in
  let fs_p = Memfs.create () in
  let progress = fresh_progress env.spec in
  (match open_on env fs_p with
  | Error m -> div "open_dir (crowd pair): %s" m
  | Ok (store, _) -> (
    match Repl.attach store (Repl.of_standby stb) with
    | Error m -> div "replication attach: %s" m
    | Ok repl ->
      let persist ev =
        Store.record store ev;
        Repl.send repl ev
      in
      let service =
        Service.create ?catalog:env.catalog ~persist
          ~crowd:(crowd_config votes) ()
      in
      run_crowd_workload env service ~votes progress;
      Array.iteri
        (fun i id ->
          if not (Smoke.outcome_equal (result_of service id) env.expected.(i))
          then div "crowd pair session %d diverges on the primary" i)
        progress.ids;
      Store.close store));
  verify_pair env progress stb;
  stats_of progress (1, 1, 1)
