module Pr = Jim_api.Protocol
module Service = Jim_server.Service
module Smoke = Jim_server.Smoke
module Store = Jim_store.Store
module Recovery = Jim_store.Recovery
module Journal = Jim_store.Journal
module W = Jim_workloads
module Coordinator = Jim_server.Coordinator
module Node = Jim_shard.Node
module Standby = Jim_shard.Standby
module Repl = Jim_shard.Repl
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
  shared_inline : bool;
}

let default =
  {
    seed = 41;
    strategies = [ "lookahead-entropy"; "random" ];
    sessions = 7;
    snapshot_every = 16;
    shared_inline = false;
  }

type stats = { events : int; points : int; runs : int; images : int }

let data_dir = "/data"

(* ------------------------------------------------------------------ *)
(* The workload: the server smoke test's synthetic instances, driven   *)
(* in-process (no sockets) so a run costs microseconds.                *)

let seed_of spec i = spec.seed + i
let strategy_of spec i = List.nth spec.strategies (i mod List.length spec.strategies)

(* The synthetic instance session [i] runs on: its own, or with
   [shared_inline] one of two shared ones. *)
let instance_of spec i =
  let i = if spec.shared_inline then i mod 2 else i in
  W.Synthetic.generate (Smoke.synthetic_params (seed_of spec i))

(* Everything derivable from the spec alone, shared across the hundreds
   of faulted runs of a sweep. *)
type env = {
  spec : spec;
  sources : Pr.instance_source array;
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
  let source i =
    if spec.shared_inline then
      Pr.Csv_inline
        (Jim_relational.Csv.to_string (instance_of spec i).W.Synthetic.relation)
    else Smoke.synthetic_source (seed_of spec i)
  in
  let sources = Array.init spec.sessions source in
  (* The reference run sees the relation the server resolves: for an
     inline source, the parsed CSV. *)
  let relation i =
    match sources.(i) with
    | Pr.Csv_inline text -> (
      match Jim_relational.Csv.load_string ~name:"inline" text with
      | Ok rel -> rel
      | Error m -> div "inline instance %d: %s" i m)
    | _ -> (instance_of spec i).W.Synthetic.relation
  in
  let oracle i = Oracle.of_goal (instance_of spec i).W.Synthetic.goal in
  let expected i =
    let strategy =
      match Strategy.of_string (strategy_of spec i) with
      | Ok s -> s
      | Error m -> div "bad strategy %S: %s" (strategy_of spec i) m
    in
    Session.run ~seed:(seed_of spec i) ~strategy ~oracle:(oracle i) (relation i)
  in
  {
    spec;
    sources;
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

(* Node calls.  A store-level fault propagates as an exception
   ([Node.handle] does not catch); an unexpected *reply* is a
   divergence — the protocol broke without the disk breaking.  Every
   helper takes the request handler, so the faulted runs go through a
   [Node] and the recovery checks through a bare [Service]. *)

let start_session env handle progress i =
  let seed = seed_of env.spec i in
  match
    handle
      (Pr.Start_session
         { source = env.sources.(i); strategy = strategy_of env.spec i; seed })
  with
  | Pr.Started { session; _ } ->
    progress.ids.(i) <- session;
    progress.started.(i) <- true
  | other -> div "start (seed %d): %s" seed (Pr.response_to_string other)

(* Answer one question; [false] when the session has converged. *)
let answer_one handle oracle id =
  match handle (Pr.Get_question { session = id }) with
  | Pr.Question None -> false
  | Pr.Question (Some { Pr.cls; sg; _ }) -> (
    match
      handle (Pr.Answer { session = id; cls; label = Oracle.label oracle sg })
    with
    | Pr.Answered _ -> true
    | other -> div "answer (session %d): %s" id (Pr.response_to_string other))
  | other -> div "question (session %d): %s" id (Pr.response_to_string other)

(* The crowd-labeled workload answers by vote: every session runs a
   [votes]-strong perfect crowd (unanimous goal labels), so each round's
   aggregate equals the oracle answer and the reference outcomes stay
   those of [Session.run].  Only the decisive ballot touches the store
   (the absorbed aggregate, journaled as an ordinary Answered event), so
   crash points land exactly at aggregate-record boundaries. *)

let crowd_attach handle id votes =
  Array.init votes (fun _ ->
      match handle (Pr.Labeler_attach { session = id }) with
      | Pr.Labeler_attached { labeler; _ } -> labeler
      | other -> div "attach (session %d): %s" id (Pr.response_to_string other))

(* One voting round: poll for the question, then every labeler casts the
   goal label.  The quorum-th ballot must close the round (outcome on its
   ack); [false] when the session has converged. *)
let crowd_answer_one handle oracle id labelers =
  match handle (Pr.Labeler_poll { session = id; labeler = labelers.(0) }) with
  | Pr.Crowd_question { question = None; _ } -> false
  | Pr.Crowd_question { round; question = Some { Pr.sg; _ } } ->
    let label = Oracle.label oracle sg in
    let closed = ref false in
    Array.iter
      (fun l ->
        match handle (Pr.Vote { session = id; labeler = l; round; label }) with
        | Pr.Vote_ok { outcome = Some _; _ } -> closed := true
        | Pr.Vote_ok _ -> ()
        | other -> div "vote (session %d): %s" id (Pr.response_to_string other))
      labelers;
    if not !closed then
      div "session %d: round %d open after %d unanimous ballots" id round
        (Array.length labelers);
    true
  | other -> div "poll (session %d): %s" id (Pr.response_to_string other)

let result_of handle id =
  match handle (Pr.Result { session = id }) with
  | Pr.Outcome o -> o
  | other -> div "result (session %d): %s" id (Pr.response_to_string other)

let labeled_of handle id =
  match handle (Pr.Stats { session = id }) with
  | Pr.Session_stats st -> st.Pr.labeled
  | other -> div "stats (session %d): %s" id (Pr.response_to_string other)

(* Start every session, then round-robin one answer at a time — so the
   journal interleaves sessions and a crash point usually cuts several
   sessions at different depths.  With [shared_inline], session [i]
   starts just before round [i] instead, so sessions on one instance
   start on both sides of checkpoints.  With [votes], each answer is a
   voting round, acked when the decisive ballot's reply carries the
   aggregate — i.e. after the journal write. *)
let run_workload ?votes env handle progress =
  let n = env.spec.sessions in
  let labelers = Array.make n [||] in
  let answer i =
    match votes with
    | None -> answer_one handle env.oracles.(i) progress.ids.(i)
    | Some _ ->
      crowd_answer_one handle env.oracles.(i) progress.ids.(i) labelers.(i)
  in
  let live = Array.make n true in
  let rec round r started =
    let due = if env.spec.shared_inline then min n (r + 1) else n in
    for i = started to due - 1 do
      start_session env handle progress i
    done;
    Option.iter
      (fun votes ->
        for i = started to due - 1 do
          labelers.(i) <- crowd_attach handle progress.ids.(i) votes
        done)
      votes;
    let answered = ref false in
    for i = 0 to due - 1 do
      if live.(i) then
        if answer i then begin
          progress.acked.(i) <- progress.acked.(i) + 1;
          answered := true
        end
        else live.(i) <- false
    done;
    if !answered || due < n then round (r + 1) due
  in
  round 0 0

(* ------------------------------------------------------------------ *)
(* Faulted runs and their verification                                 *)

(* The process "dying": a power cut, an injected I/O error surfacing
   through the store, the journal refusing appends after poisoning, or a
   checkpoint abort ([Store] wraps failed snapshot writes in [Failure]).
   Anything else — notably [Divergence] — propagates. *)
let interrupted = function
  | Memfs.Power_cut | Unix.Unix_error _ | Journal.Poisoned | Failure _ -> true
  | _ -> false

let crowd_config votes =
  (* A deadline the in-process run can never hit: rounds close by quorum
     only, so the ballot count per aggregate is exact. *)
  { Coordinator.votes; timeout = 3600.; weighted = false }

(* Run the workload on a fresh primary node over [fs] — a crowd one with
   [votes], a replicating one with [replicate_to] — assembled as
   [jim serve] assembles its own.  Returns [`Completed] (live outcomes
   pinned to the in-process runs) or [`Interrupted], with [progress]
   holding exactly what was acked.  A node that dies mid-run is
   abandoned, never stopped: the process "died". *)
let drive ?votes ?replicate_to env fs progress =
  try
    let node =
      Result.fold ~ok:Fun.id ~error:(div "fresh primary: %s")
        (Node.create
           {
             (Node.config (Node.Primary { data_dir = Some data_dir; replicate_to }))
             with
             settings =
               { Node.default_settings with crowd = Option.map crowd_config votes };
             snapshot_every = env.spec.snapshot_every;
             io = Memfs.io fs;
             catalog = env.catalog;
           })
    in
    let handle = Node.handle node in
    run_workload ?votes env handle progress;
    Array.iteri
      (fun i id ->
        if not (Smoke.outcome_equal (result_of handle id) env.expected.(i))
        then div "live session %d diverges" i)
      progress.ids;
    Node.stop node;
    `Completed
  with e when interrupted e -> `Interrupted

(* The three-part contract, against recovered state — from a post-crash
   disk image or from a promoted replication standby.  Recovery goes
   into a service {e without} crowd labeling: a crowd journal must
   replay as plain answers, proving no ballot or partial tally ever
   reached disk. *)
let verify_recovered env progress (store, recovered) =
  let service =
    Service.create ?catalog:env.catalog ~persist:(Store.record store) ()
  in
  (match Service.restore service recovered with
  | Ok _ -> ()
  | Error m -> div "restore refused: %s" m);
  let handle = Service.handle service in
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
          let labeled = labeled_of handle s.Recovery.id in
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
      while answer_one handle env.oracles.(i) id do
        ()
      done;
      if not (Smoke.outcome_equal (result_of handle id) env.expected.(i))
      then div "session %d (seed %d): resumed outcome diverges" i s.Recovery.seed)
    recovered.Recovery.sessions;
  Store.close store

(* The three-part contract, against one post-crash disk image. *)
let verify_image env progress fs =
  match
    Store.open_dir ~fsync:false ~snapshot_every:env.spec.snapshot_every
      ~io:(Memfs.io fs) data_dir
  with
  | Error m -> div "recovery refused: %s" m
  | Ok recovered -> verify_recovered env progress recovered

(* One faulted run + both disk images verified.  A violation names the
   plan that provoked it — the sweep's whole reproduction recipe. *)
let check_plan ?votes env plan =
  let fs = Memfs.create ~plan () in
  let progress = fresh_progress env.spec in
  let outcome = drive ?votes env fs progress in
  let under what f =
    try f () with
    | Divergence m -> div "[%s, %s image] %s" (Plan.to_string plan) what m
  in
  under "durable" (fun () -> verify_image env progress (Memfs.durable_image fs));
  under "flushed" (fun () -> verify_image env progress (Memfs.flushed_image fs));
  outcome

let completed what = function
  | `Completed -> ()
  | `Interrupted -> div "%s interrupted without a fault" what

(* Uninterrupted reference under [base] (chunking only, never faults):
   gives the ordinal/byte totals the sweeps enumerate, and pins the live
   outcomes to the in-process oracle runs. *)
let reference ?votes env base =
  let fs = Memfs.create ~plan:base () in
  let progress = fresh_progress env.spec in
  completed "reference run" (drive ?votes env fs progress);
  (fs, progress)

(* Every [stride]-th ordinal up to [total], each checked under its
   [plans_of] plans; a check verifies [images] recoveries. *)
let sweep_ordinals ?(images = 2) env ~check ~total ~stride ~plans_of =
  let points = ref 0 and runs = ref 0 in
  let n = ref 1 in
  while !n <= total do
    incr points;
    List.iter
      (fun plan ->
        ignore (check env plan);
        incr runs)
      (plans_of !n);
    n := !n + stride
  done;
  (!points, !runs, images * !runs)

let stats_of progress (points, runs, images) =
  { events = events_of progress; points; runs; images }

let check_votes who votes =
  if votes <= 0 || votes mod 2 = 0 then
    invalid_arg (who ^ ": votes must be odd and positive")

let crash_sweep_of ~who ?votes ?catalog ?chunk ?(stride = 1)
    ?(applied = [ 0; 3 ]) spec =
  if stride < 1 then invalid_arg (who ^ ": stride");
  Option.iter (check_votes who) votes;
  let env = env_of ?catalog spec in
  let base = { Plan.none with write_chunk = chunk } in
  let fs, progress = reference ?votes env base in
  let counters =
    sweep_ordinals env ~check:(check_plan ?votes) ~total:(Memfs.writes fs)
      ~stride
      ~plans_of:(fun n ->
        List.map (fun a -> { base with Plan.crash_write = Some (n, a) }) applied)
  in
  stats_of progress counters

let crash_sweep = crash_sweep_of ~who:"Sweep.crash_sweep" ?votes:None

let crowd_crash_sweep ?catalog ?chunk ?stride ?applied ?(votes = 3) spec =
  crash_sweep_of ~who:"Sweep.crowd_crash_sweep" ~votes ?catalog ?chunk
    ?stride ?applied spec

(* One fault per ordinal of the reference run's [total] count. *)
let ordinal_sweep ~who ~total ~plan_of ?catalog ?(stride = 1) spec =
  if stride < 1 then invalid_arg (who ^ ": stride");
  let env = env_of ?catalog spec in
  let fs, progress = reference env Plan.none in
  stats_of progress
    (sweep_ordinals env ~check:check_plan ~total:(total fs) ~stride
       ~plans_of:(fun n -> [ plan_of n ]))

let fsync_sweep =
  ordinal_sweep ~who:"Sweep.fsync_sweep" ~total:Memfs.fsyncs
    ~plan_of:(fun n -> { Plan.none with fail_fsync = Some n })

let write_error_sweep =
  ordinal_sweep ~who:"Sweep.write_error_sweep" ~total:Memfs.writes
    ~plan_of:(fun n -> { Plan.none with fail_write = Some n })

let enospc_sweep ?catalog ?(points = 8) spec =
  if points < 1 then invalid_arg "Sweep.enospc_sweep: points";
  let env = env_of ?catalog spec in
  let fs, progress = reference env Plan.none in
  let bytes = Memfs.bytes_accepted fs in
  (* Spread budgets over the run; the +1/+3 drift lands some of them
     mid-record rather than always on the same alignment. *)
  let budget j = max 1 ((bytes * j / (points + 1)) + (j mod 4)) in
  stats_of progress
    (sweep_ordinals env ~check:check_plan ~total:points ~stride:1
       ~plans_of:(fun j -> [ { Plan.none with enospc_after = Some (budget j) } ]))

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

let standby_dir = "/standby"

(* One primary/standby pair: the primary runs on [fs] (possibly
   faulted), the standby on its own clean filesystem, attached through
   the in-process replication stream.  The persist hook is
   record-then-send, so an event reaches the standby only after it is
   durable on the primary — and the client is acked only after both.
   The standby filesystem is never faulted: the crash always hits the
   primary mid-record, before the send, which is exactly what makes
   "everything acked is on the standby" a checkable invariant. *)
let drive_pair ?votes env plan =
  let fs_s = Memfs.create () in
  let stb = Standby.create ~io:(Memfs.io fs_s) ~dir:standby_dir () in
  let fs_p = Memfs.create ~plan () in
  let progress = fresh_progress env.spec in
  let outcome =
    drive ?votes ~replicate_to:(Repl.of_standby stb) env fs_p progress
  in
  (outcome, (fs_p, fs_s), stb, progress)

(* Promote the survivor and hold it to the same three-part contract a
   recovered disk image must meet: every acked event present, at most
   one in-flight beyond, every session resuming bit-identically. *)
let verify_pair env progress stb =
  match
    Standby.promote ~fsync:false ~snapshot_every:env.spec.snapshot_every stb
  with
  | Error m -> div "standby promotion refused: %s" m
  | Ok recovered -> verify_recovered env progress recovered

(* The store files under [dir], by name, with their bytes. *)
let files fs dir =
  Array.to_list ((Memfs.io fs).Jim_store.Io.readdir dir)
  |> List.sort compare
  |> List.map (fun name -> (name, Memfs.file fs (Filename.concat dir name)))

(* Fault-free pair: pins the stream end-to-end — the standby's files
   must be byte-identical to the primary's (a sequential workload ships
   in journal order), and the promoted standby must resume every
   completed session verbatim — and counts the primary write ordinals a
   sweep enumerates. *)
let reference_pair ?votes env =
  let outcome, (fs_p, fs_s), stb, progress = drive_pair ?votes env Plan.none in
  completed "reference pair run" outcome;
  let primary = files fs_p data_dir and standby = files fs_s standby_dir in
  if primary <> standby then
    div "standby files differ in bytes from the primary's: [%s] vs [%s]"
      (String.concat " " (List.map fst primary))
      (String.concat " " (List.map fst standby));
  verify_pair env progress stb;
  (fs_p, progress)

let replicated_sweep ?catalog ?(stride = 1) ?(applied = [ 0; 3 ]) spec =
  if stride < 1 then invalid_arg "Sweep.replicated_sweep: stride";
  let env = env_of ?catalog spec in
  let fs_p, progress = reference_pair env in
  let check env plan =
    let _outcome, _fs, stb, prog = drive_pair env plan in
    try verify_pair env prog stb
    with Divergence m -> div "[%s, promoted standby] %s" (Plan.to_string plan) m
  in
  stats_of progress
    (sweep_ordinals ~images:1 env ~check ~total:(Memfs.writes fs_p) ~stride
       ~plans_of:(fun n ->
         List.map (fun a -> { Plan.none with crash_write = Some (n, a) }) applied))

(* One fault-free primary/standby pair under the crowd workload: the
   replication stream carries only the aggregates, so the promoted
   standby must resume every session bit-identically with no crowd
   machinery of its own.  (Failover under faults is [replicated_sweep]'s
   job — the event stream is identical, crowd or not.) *)
let crowd_replicated_run ?catalog ?(votes = 3) spec =
  check_votes "Sweep.crowd_replicated_run" votes;
  let _fs, progress = reference_pair ~votes (env_of ?catalog spec) in
  stats_of progress (1, 1, 1)
