module P = Jim_api.Protocol
module Catalog = Jim_catalog.Catalog
open Jim_core

type session = {
  id : int;
  strategy : Strategy.t;
  strategy_name : string;
  eng : Session.t;
  entry : Catalog.entry;
      (* the catalog entry the engine was warm-started from; holds this
         session's pin — released when the session ends or is swept *)
  schema : Jim_relational.Schema.t;
  rng : Random.State.t;
  mutable pending : int option option;
      (* memoised next question: [Some q] until an answer or undo
         invalidates it, so repeated Get_questions advance the RNG exactly
         once per round — the determinism the smoke test pins. *)
  mutable events_rev : Session.event list;
  mutable contradiction : bool;
  mutable metrics : Metrics.snapshot;
  mutable last_used : float;
  crowd : Coordinator.t option;
      (* Some iff the service was created with crowd labeling enabled:
         answers then arrive only as vote aggregates.  In-memory only —
         a restored session gets a fresh coordinator (labelers
         re-attach) while its absorbed aggregates replay from the
         journal as ordinary answers. *)
}

type t = {
  sessions : (int, session) Hashtbl.t;
  mutable next_id : int;
  max_sessions : int;
  idle_ttl : float;
  now : unit -> float;
  catalog : Catalog.t;
      (* instance catalog every session of this service resolves through
         (shareable across services — the fault sweeps do) *)
  persist_hook : (Jim_store.Event.t -> unit) option;
      (* called with every state-mutating event *before* its reply is
         built; [None] in the default in-memory mode *)
  crowd : Coordinator.config option;
      (* when Some, every session gets a vote coordinator and direct
         Answer/Undo are refused *)
}

let create ?(max_sessions = 64) ?(idle_ttl = 600.) ?(now = Unix.gettimeofday)
    ?catalog ?persist ?crowd () =
  (* Validate eagerly, not at first session start. *)
  (match crowd with
  | Some cfg -> ignore (Coordinator.create ~now:0. cfg)
  | None -> ());
  {
    sessions = Hashtbl.create 16;
    next_id = 1;
    max_sessions;
    idle_ttl;
    now;
    catalog = (match catalog with Some c -> c | None -> Catalog.create ());
    persist_hook = persist;
    crowd;
  }

let catalog t = t.catalog

let persist t ev =
  match t.persist_hook with None -> () | Some f -> f ev

let session_count t = Hashtbl.length t.sessions

(* Drop a session from the table, journal its end and unpin its entry.
   Nothing can reach it afterwards, so no event of it follows Ended. *)
let retire t (s : session) =
  Hashtbl.remove t.sessions s.id;
  persist t (Jim_store.Event.Ended { session = s.id });
  Catalog.release t.catalog s.entry

let sweep t =
  let now = t.now () in
  let stale =
    Hashtbl.fold
      (fun _ s acc -> if now -. s.last_used > t.idle_ttl then s :: acc else acc)
      t.sessions []
  in
  List.iter (retire t) stale;
  List.length stale

(* ------------------------------------------------------------------ *)
(* Per-session helpers                                                 *)

(* Scorer counters are process-global (see Metrics); we attribute each
   engine-touching request's delta to the session that caused it.  A
   service is owned by the thread that serves it, so its own requests
   never interleave; another service in the same process (a second node
   in a test) can still add to a delta — the totals stay exact, the
   attribution is best-effort, which is all the Stats reply promises. *)
let measured s f =
  let before = Metrics.snapshot () in
  let r = f () in
  s.metrics <- Metrics.add s.metrics (Metrics.diff (Metrics.snapshot ()) before);
  r

let decided_totals eng =
  let classes = Session.classes eng in
  let cd = ref 0 and td = ref 0 in
  Array.iteri
    (fun i c ->
      if Session.status eng i <> State.Informative then begin
        incr cd;
        td := !td + c.Sigclass.card
      end)
    classes;
  (!cd, !td)

let question_of_cls eng c =
  let cls = (Session.classes eng).(c) in
  { P.cls = c; row = Sigclass.representative cls; sg = cls.Sigclass.sg }

let pending_question s =
  match s.pending with
  | Some q -> q
  | None ->
    let q = measured s (fun () -> Session.question s.eng s.strategy s.rng) in
    s.pending <- Some q;
    q

let check_cls s c =
  let n = Array.length (Session.classes s.eng) in
  if c < 0 || c >= n then
    Error
      (P.Bad_request (Printf.sprintf "class index %d out of range 0..%d" c (n - 1)))
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)

(* A fresh session on [eng], warm-started off [entry].  Live starts and
   recovery both build it here, so a restored session replays its labels
   from the same initial RNG state as the session it replaces. *)
let new_session t ~id ~strategy ~eng ~entry ~seed =
  {
    id;
    strategy;
    strategy_name = Strategy.to_string strategy;
    eng;
    entry;
    schema = entry.Catalog.schema;
    rng = Random.State.make [| seed |];
    pending = None;
    events_rev = [];
    contradiction = false;
    metrics = Metrics.zero;
    last_used = t.now ();
    crowd =
      Option.map (fun cfg -> Coordinator.create ~now:(t.now ()) cfg) t.crowd;
  }

let start_session ?id:pinned t source strategy_name seed =
  ignore (sweep t);
  match Catalog.resolve t.catalog source with
  | Error e -> P.Failed e
  | Ok entry -> (
    match Strategy.of_string strategy_name with
    | Error msg ->
      Catalog.release t.catalog entry;
      P.Failed (P.Unknown_strategy msg)
    | Ok strategy ->
      let active = Hashtbl.length t.sessions in
      let refuse e =
        Catalog.release t.catalog entry;
        P.Failed e
      in
      if active >= t.max_sessions then
        refuse (P.Server_busy { active; max = t.max_sessions })
      else if
        match pinned with
        | Some id -> Hashtbl.mem t.sessions id
        | None -> false
      then
        refuse
          (P.Bad_request
             (Printf.sprintf "session id %d already in use" (Option.get pinned)))
      else begin
        (* A pinned id comes from the router's global allocator; bump
           ours past it so a locally-started session can never collide
           with a routed one. *)
        let id = match pinned with Some id -> id | None -> t.next_id in
        t.next_id <- max t.next_id (id + 1);
        (* Warm-start the engine off the catalog entry: cold derivation
           happened (once) inside the catalog; this is an array copy. *)
        let eng = Catalog.engine entry in
        let s = new_session t ~id ~strategy ~eng ~entry ~seed in
        Hashtbl.replace t.sessions id s;
        (* The event carries the entry's concrete origin, never the
           client's [Catalog fp]: after a restart the catalog is empty,
           and recovery must be able to re-resolve from the data
           directory alone.  The store writes an inline origin's text
           once per generation and a [Catalog fp] reference after that,
           which recovery resolves within the same generation's files
           (see [Jim_store.Instances]). *)
        persist t
          (Jim_store.Event.Started
             {
               session = id;
               arity = entry.Catalog.arity;
               source = entry.Catalog.origin;
               strategy = s.strategy_name;
               seed;
               fingerprint = entry.Catalog.fingerprint;
             });
        P.Started
          {
            session = id;
            arity = entry.Catalog.arity;
            classes = Array.length entry.Catalog.classes;
            tuples = entry.Catalog.tuples;
            strategy = s.strategy_name;
          }
      end)

let with_session t id f =
  match Hashtbl.find_opt t.sessions id with
  | None -> P.Failed (P.Unknown_session id)
  | Some s ->
    s.last_used <- t.now ();
    f s

let get_question s = P.Question (Option.map (question_of_cls s.eng) (pending_question s))

let top_questions s k =
  if k < 0 then P.Failed (P.Bad_request "k must be non-negative")
  else
    let cs =
      measured s (fun () -> Session.top_questions s.eng s.strategy s.rng k)
    in
    P.Questions (List.map (question_of_cls s.eng) cs)

(* The engine-mutating core, shared by live requests and crash-recovery
   replay (which must not re-journal what it replays). *)
let apply_answer s c label =
  match check_cls s c with
  | Error e -> P.Failed e
  | Ok () -> (
    (* Advance the round's question first so the RNG consumption matches
       [Session.run] even if the client answers without asking. *)
    ignore (pending_question s);
    match measured s (fun () -> Session.answer s.eng c label) with
    | Error e ->
      if e = Session.Contradiction then s.contradiction <- true;
      P.Failed (P.Engine e)
    | Ok () ->
      s.pending <- None;
      let cls = (Session.classes s.eng).(c) in
      let decided, tuples = decided_totals s.eng in
      let ev =
        {
          Session.step = Session.asked s.eng;
          cls = c;
          row = Sigclass.representative cls;
          sg = cls.Sigclass.sg;
          label;
          decided_after = decided;
          tuples_decided_after = tuples;
          vs_after = Version_space.count (Session.state s.eng);
        }
      in
      s.events_rev <- ev :: s.events_rev;
      P.Answered
        {
          finished = Session.finished s.eng;
          asked = Session.asked s.eng;
          decided_classes = decided;
          decided_tuples = tuples;
        })

let apply_undo s =
  match measured s (fun () -> Session.undo s.eng) with
  | Error e -> P.Failed (P.Engine e)
  | Ok () ->
    s.pending <- None;
    (match s.events_rev with [] -> () | _ :: tl -> s.events_rev <- tl);
    P.Undone { asked = Session.asked s.eng }

let do_answer t s c label =
  match apply_answer s c label with
  | P.Answered _ as r ->
    let sg = (Session.classes s.eng).(c).Sigclass.sg in
    persist t (Jim_store.Event.Answered { session = s.id; cls = c; sg; label });
    r
  | r -> r

let do_undo t s =
  match apply_undo s with
  | P.Undone _ as r ->
    persist t (Jim_store.Event.Undone { session = s.id });
    r
  | r -> r

let do_explain s c =
  match check_cls s c with
  | Error e -> P.Failed e
  | Ok () ->
    let why = Session.explain_class s.eng c in
    P.Explanation
      {
        cls = c;
        status = Session.status s.eng c;
        text = Explain.to_string s.schema why;
      }

let do_result s =
  P.Outcome
    {
      Session.query = Session.result s.eng;
      events = List.rev s.events_rev;
      interactions = Session.asked s.eng;
      contradiction = s.contradiction;
    }

let do_stats s =
  let classes = Session.classes s.eng in
  let _, decided_tuples = decided_totals s.eng in
  let total = Sigclass.total_rows classes in
  let labeled = Session.asked s.eng in
  P.Session_stats
    {
      P.labeled;
      auto_determined = max 0 (decided_tuples - labeled);
      still_informative = total - decided_tuples;
      total;
      version_space = Version_space.count (Session.state s.eng);
      scoring = s.metrics;
    }

let do_transcript s =
  P.Transcript_text { text = Transcript.to_string (Transcript.of_engine s.eng) }

let end_session t id =
  match Hashtbl.find_opt t.sessions id with
  | None -> P.Failed (P.Unknown_session id)
  | Some s ->
    retire t s;
    P.Ended

(* ------------------------------------------------------------------ *)
(* Crowd labeling                                                      *)

let crowd_disabled = "crowd labeling disabled (start the server with --votes)"
let crowd_answer_guard = "session is crowd-labeled: answers arrive by vote"
let crowd_undo_guard = "session is crowd-labeled: undo is disabled"

let with_crowd (s : session) f =
  match s.crowd with
  | None -> P.Failed (P.Bad_request crowd_disabled)
  | Some co -> f co

(* Absorb an aggregate through the normal answer path — [do_answer]
   journals it as a plain Answered event, so recovery, replication and
   bit-identity need no crowd-specific handling at all.  An aggregate the
   engine refuses as contradictory (possible under noise) is dropped and
   the round re-asked: fresh ballots draw fresh noisy labels. *)
let close_round t s co label =
  match pending_question s with
  | None -> None
  | Some c -> (
    match do_answer t s c label with
    | P.Answered _ ->
      Coordinator.absorbed ~now:(t.now ()) co label;
      Some label
    | _ ->
      Coordinator.rejected ~now:(t.now ()) co;
      None)

(* Settle an overdue round before building any crowd reply; polls and
   votes are the coordinator's only clock. *)
let crowd_expire t s co =
  if pending_question s <> None then
    match Coordinator.expire ~now:(t.now ()) co with
    | Coordinator.Wait -> ()
    | Coordinator.Aggregate label -> ignore (close_round t s co label)

let do_labeler_attach s =
  with_crowd s (fun co ->
      P.Labeler_attached { labeler = Coordinator.attach co; votes = Coordinator.quorum co })

let do_labeler_poll t s labeler =
  with_crowd s (fun co ->
      if not (Coordinator.known co labeler) then
        P.Failed (P.Unknown_labeler labeler)
      else begin
        crowd_expire t s co;
        P.Crowd_question
          {
            round = Coordinator.round co;
            question = Option.map (question_of_cls s.eng) (pending_question s);
          }
      end)

let do_vote t s labeler round label =
  with_crowd s (fun co ->
      if not (Coordinator.known co labeler) then
        P.Failed (P.Unknown_labeler labeler)
      else begin
        crowd_expire t s co;
        let stale () =
          P.Vote_ok { round = Coordinator.round co; counted = false; outcome = None }
        in
        match pending_question s with
        | None -> stale () (* finished: no round is open *)
        | Some _ -> (
          match Coordinator.vote ~now:(t.now ()) co ~labeler ~round ~label with
          | `Unknown -> P.Failed (P.Unknown_labeler labeler)
          | `Stale -> stale ()
          | `Counted Coordinator.Wait ->
            P.Vote_ok
              { round = Coordinator.round co; counted = true; outcome = None }
          | `Counted (Coordinator.Aggregate l) ->
            let outcome = close_round t s co l in
            P.Vote_ok
              { round = Coordinator.round co; counted = true; outcome })
      end)

let do_crowd_stats s =
  with_crowd s (fun co -> P.Crowd_info (Coordinator.stats co))

let register_instance t source =
  match Catalog.resolve t.catalog source with
  | Error e -> P.Failed e
  | Ok entry ->
    (* Registration pins nothing: the entry stays warm in the catalog
       until the LRU cap wants the slot back. *)
    Catalog.release t.catalog entry;
    P.Registered
      {
        fingerprint = entry.Catalog.fingerprint;
        arity = entry.Catalog.arity;
        classes = Array.length entry.Catalog.classes;
        tuples = entry.Catalog.tuples;
      }

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)

let ( let* ) = Result.bind

(* Rebuild one recovered session by re-resolving its source and replaying
   its surviving labels through the exact live-request code path
   ([pending_question] before every answer), so engine state, RNG state,
   the cached question and the event log all land bit-identical to an
   uninterrupted run. *)
let restore_session t (rs : Jim_store.Recovery.session) =
  let fail fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "session %d: %s" rs.id m)) fmt
  in
  (* Resolve through the catalog: restored sessions on one instance share
     (and warm) the same entry live sessions will use.  The recovered
     source is always concrete — recovery resolves the store's instance
     references (see [start_session]) — and its entry's fingerprint was
     computed once at interning: compare it against the journaled one
     to refuse drifted instances, exactly as before. *)
  let* entry =
    match Catalog.resolve t.catalog rs.source with
    | Ok e -> Ok e
    | Error e -> fail "cannot re-resolve source: %s" (P.error_to_string e)
  in
  let abort r =
    Catalog.release t.catalog entry;
    r
  in
  if entry.Catalog.fingerprint <> rs.fingerprint then
    abort
      (fail
         "instance drifted since the journal was written (fingerprint %s, \
          expected %s)"
         entry.Catalog.fingerprint rs.fingerprint)
  else
    let strategy_or_err =
      match Strategy.of_string rs.strategy with
      | Ok s -> Ok s
      | Error m -> fail "%s" m
    in
    match strategy_or_err with
    | Error e -> abort (Error e)
    | Ok strategy -> (
    let eng = Catalog.engine entry in
    let s = new_session t ~id:rs.id ~strategy ~eng ~entry ~seed:rs.seed in
    let classes = Session.classes eng in
    let cls_of_sg sg =
      let n = Array.length classes in
      let rec go i =
        if i >= n then fail "snapshot signature matches no class"
        else if Jim_partition.Partition.equal classes.(i).Sigclass.sg sg then
          Ok i
        else go (i + 1)
      in
      go 0
    in
    let replay =
      List.fold_left
        (fun acc step ->
          let* () = acc in
          match (step : Jim_store.Recovery.step) with
          | Label { cls; sg; label } -> (
            let* c = match cls with Some c -> Ok c | None -> cls_of_sg sg in
            match apply_answer s c label with
            | P.Answered _ -> Ok ()
            | P.Failed e -> fail "replay: %s" (P.error_to_string e)
            | _ -> fail "replay: unexpected reply")
          | Undo -> (
            match apply_undo s with
            | P.Undone _ -> Ok ()
            | P.Failed e -> fail "replay undo: %s" (P.error_to_string e)
            | _ -> fail "replay undo: unexpected reply"))
        (Ok ()) rs.steps
    in
    match replay with Error e -> abort (Error e) | Ok () -> Ok s)

let restore t (r : Jim_store.Recovery.t) =
  let rec go acc = function
    | [] -> Ok acc
    | rs :: rest -> (
      match restore_session t rs with
      | Ok s -> go (s :: acc) rest
      | Error e ->
        (* All-or-nothing: drop the pins the already-restored sessions
           took before this failure aborted the restore. *)
        List.iter (fun s -> Catalog.release t.catalog s.entry) acc;
        Error e)
  in
  let* restored = go [] r.sessions in
  List.iter (fun s -> Hashtbl.replace t.sessions s.id s) restored;
  t.next_id <- max t.next_id r.next_id;
  Ok (List.length restored)

let handle t req =
  match req with
  | P.Start_session { source; strategy; seed } ->
    start_session t source strategy seed
  | P.Get_question { session } -> with_session t session get_question
  | P.Top_questions { session; k } ->
    with_session t session (fun s -> top_questions s k)
  | P.Answer { session; cls; label } ->
    with_session t session (fun s ->
        match s.crowd with
        | Some _ -> P.Failed (P.Bad_request crowd_answer_guard)
        | None -> do_answer t s cls label)
  | P.Undo { session } ->
    with_session t session (fun s ->
        match s.crowd with
        | Some _ -> P.Failed (P.Bad_request crowd_undo_guard)
        | None -> do_undo t s)
  | P.Explain { session; cls } ->
    with_session t session (fun s -> do_explain s cls)
  | P.Result { session } -> with_session t session do_result
  | P.Stats { session } -> with_session t session do_stats
  | P.Get_transcript { session } -> with_session t session do_transcript
  | P.End_session { session } -> end_session t session
  | P.Register_instance { source } -> register_instance t source
  | P.Catalog_stats -> P.Catalog_info (Catalog.stats t.catalog)
  | P.Start_pinned { session; source; strategy; seed } ->
    start_session ~id:session t source strategy seed
  | P.Repl_install _ | P.Repl_rotate _ | P.Repl_batch _ | P.Repl_status ->
    P.Failed
      (P.Bad_request "replication control message sent to a serving node")
  | P.Promote ->
    P.Failed (P.Bad_request "this node is already serving (not a standby)")
  | P.Ring_status ->
    P.Failed (P.Bad_request "ring_status is answered by the router")
  | P.Labeler_attach { session } -> with_session t session do_labeler_attach
  | P.Labeler_poll { session; labeler } ->
    with_session t session (fun s -> do_labeler_poll t s labeler)
  | P.Vote { session; labeler; round; label } ->
    with_session t session (fun s -> do_vote t s labeler round label)
  | P.Crowd_stats { session } -> with_session t session do_crowd_stats
