module P = Jim_api.Protocol
open Jim_core

type client_report = {
  seed : int;
  strategy : string;
  questions : int;
  ok : bool;
  dropped : bool;
  detail : string;
}

(* Failures carry their class from the call site that observed them:
   [transport] failures (refused connect, clean EOF, reset, timeout) are
   what a chaos proxy manufactures on purpose; everything else is the
   server getting the protocol or the inference wrong. *)
type fail = { transport : bool; msg : string }

let diverged fmt = Printf.ksprintf (fun msg -> { transport = false; msg }) fmt

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let report ~seed ~strategy ~questions = function
  | Ok () -> { seed; strategy; questions; ok = true; dropped = false; detail = "" }
  | Error { transport; msg } ->
      { seed; strategy; questions; ok = false; dropped = transport; detail = msg }

(* Small instances keep 32 concurrent lookahead sessions fast while still
   exercising multi-step inference. *)
let synthetic_params seed =
  { Jim_workloads.Synthetic.n_attrs = 5; n_tuples = 40; domain = 8;
    goal_rank = 2; seed }

let synthetic_source seed =
  let p = synthetic_params seed in
  P.Synthetic
    {
      n_attrs = p.Jim_workloads.Synthetic.n_attrs;
      n_tuples = p.Jim_workloads.Synthetic.n_tuples;
      domain = p.Jim_workloads.Synthetic.domain;
      goal_rank = p.Jim_workloads.Synthetic.goal_rank;
      seed = p.Jim_workloads.Synthetic.seed;
    }

let reference ~instance_seed ~seed ~strategy =
  let inst = Jim_workloads.Synthetic.generate (synthetic_params instance_seed) in
  let oracle = Oracle.of_goal inst.Jim_workloads.Synthetic.goal in
  let strat =
    match Strategy.of_string strategy with
    | Ok s -> s
    | Error msg -> invalid_arg msg
  in
  ( oracle,
    Session.run ~seed ~strategy:strat ~oracle
      inst.Jim_workloads.Synthetic.relation )

let event_equal (a : Session.event) (b : Session.event) =
  a.step = b.step && a.cls = b.cls && a.row = b.row
  && Jim_partition.Partition.equal a.sg b.sg
  && a.label = b.label
  && a.decided_after = b.decided_after
  && a.tuples_decided_after = b.tuples_decided_after
  && Float.equal a.vs_after b.vs_after

let outcome_equal (a : Session.outcome) (b : Session.outcome) =
  Jim_partition.Partition.equal a.query b.query
  && a.interactions = b.interactions
  && a.contradiction = b.contradiction
  && List.length a.events = List.length b.events
  && List.for_all2 event_equal a.events b.events

let differs what ~(got : Session.outcome) ~(want : Session.outcome) =
  diverged "%s: wire %s/%d, local %s/%d" what
    (Jim_partition.Partition.to_string got.query)
    got.interactions
    (Jim_partition.Partition.to_string want.query)
    want.interactions

let unexpected what resp =
  Error
    (diverged "unexpected reply to %s: %s" what (P.response_to_string resp))

(* Every driver caps how long it will wait on one reply: a server (or
   chaos proxy) that stalls instead of answering must classify as a
   transport drop, never hang the drill.  30 s is far above any honest
   reply; chaos tests shrink it to provoke the timeout on purpose. *)
let default_receive_timeout = 30.

(* The only place a drill opens a connection, so every drill honours
   [framing] and the receive timeout alike. *)
let connect ~framing ~receive_timeout address =
  match Wire.connect ~retries:50 ~framing address with
  | Error msg -> Error { transport = true; msg = "connect: " ^ msg }
  | Ok conn ->
    Wire.set_timeout conn receive_timeout;
    Ok conn

(* [Wire.call_line] errors are transport by construction; an unparsable
   reply line is not — the bytes arrived, the server spoke garbage. *)
let parse line =
  match P.response_of_string line with
  | Ok resp -> Ok resp
  | Error e -> Error (diverged "bad reply: %s" (P.error_to_string e))

let call conn req =
  match Wire.call_line conn (P.request_to_string req) with
  | Error msg -> Error { transport = true; msg }
  | Ok line -> parse line

(* ------------------------------------------------------------------ *)
(* The session machine.  A slot is one oracle-driven session: it holds
   at most one request in flight and maps each reply to its next
   request, so any number of slots can share a connection — the server
   answers in request order, and a FIFO of slot indices in send order
   routes every reply back to its slot.  Every drill below is this one
   machine with different slots on different connections. *)

type phase =
  | Starting
  | Checking  (* resumed: the server must hold [asked] answers *)
  | Asking
  | Answering
  | Fetching
  | Ending

type slot = {
  seed : int;
  strategy : string;
  source : P.instance_source;
  oracle : Oracle.t;
  expected : Session.outcome;
  stop_after : int option;
      (* park the session, unended, after this many acknowledged answers *)
  resumed : bool;
  mutable session : int;
  mutable asked : int;
  mutable phase : phase;
  mutable outcome : (unit, fail) result option;  (* [None] = still running *)
}

(* A slot for the synthetic instance seeded [instance] (default [seed]),
   started from [source] (default: that instance inline); [resume] picks
   up an existing session holding [already] acknowledged answers. *)
let slot ?instance ?source ?stop_after ?resume ~seed ~strategy () =
  let instance_seed = Option.value instance ~default:seed in
  let oracle, expected = reference ~instance_seed ~seed ~strategy in
  let session, asked, phase =
    match resume with
    | Some (session, already) -> (session, already, Checking)
    | None -> (-1, 0, Starting)
  in
  {
    seed;
    strategy;
    source = Option.value source ~default:(synthetic_source instance_seed);
    oracle;
    expected;
    stop_after = Option.map (fun f -> f expected) stop_after;
    resumed = resume <> None;
    session;
    asked;
    phase;
    outcome = None;
  }

let opening s =
  match s.phase with
  | Checking -> P.Stats { session = s.session }
  | _ -> P.Start_session { source = s.source; strategy = s.strategy; seed = s.seed }

type step = Next of P.request | Finished | Failed of fail

let step s resp =
  let next phase req =
    s.phase <- phase;
    Next req
  in
  let ask () = next Asking (P.Get_question { session = s.session }) in
  match (s.phase, resp) with
  | _, P.Failed e -> Failed (diverged "%s" (P.error_to_string e))
  | Starting, P.Started { session; _ } ->
    s.session <- session;
    ask ()
  | Checking, P.Session_stats { labeled; _ } ->
    (* Every acknowledged answer must have survived the kill. *)
    if labeled = s.asked then ask ()
    else
      Failed
        (diverged "recovered session holds %d answers, %d were acknowledged"
           labeled s.asked)
  | Asking, P.Question (Some { P.cls; sg; _ }) ->
    let label = Oracle.label s.oracle sg in
    next Answering (P.Answer { session = s.session; cls; label })
  | Asking, P.Question None ->
    if s.stop_after <> None then Finished
    else next Fetching (P.Result { session = s.session })
  | Answering, P.Answered _ ->
    s.asked <- s.asked + 1;
    if s.stop_after = Some s.asked then Finished else ask ()
  | Fetching, P.Outcome got ->
    if outcome_equal s.expected got then
      next Ending (P.End_session { session = s.session })
    else if s.resumed then
      Failed
        (differs "resumed outcome differs from uninterrupted run" ~got
           ~want:s.expected)
    else
      Failed
        (differs "outcome differs from local Session.run" ~got ~want:s.expected)
  | Ending, P.Ended -> Finished
  | phase, other ->
    let what =
      match phase with
      | Starting -> "Start_session"
      | Checking -> "Stats"
      | Asking -> "Get_question"
      | Answering -> "Answer"
      | Fetching -> "Result"
      | Ending -> "End_session"
    in
    Failed
      (diverged "unexpected reply to %s: %s" what (P.response_to_string other))

(* Drive [slots] over one connection until none is in flight.  Transport
   death takes every in-flight slot with it. *)
let pump conn slots =
  let fifo = Queue.create () in
  let send i req =
    match Wire.send_line ~flush:false conn (P.request_to_string req) with
    | Ok () -> Queue.push i fifo
    | Error msg -> slots.(i).outcome <- Some (Error { transport = true; msg })
  in
  Array.iteri (fun i s -> send i (opening s)) slots;
  let rec loop () =
    if not (Queue.is_empty fifo) then
      match Wire.recv_line conn with
      | Error msg ->
        Queue.iter
          (fun i -> slots.(i).outcome <- Some (Error { transport = true; msg }))
          fifo
      | Ok line ->
        let i = Queue.pop fifo in
        let s = slots.(i) in
        (match
           match parse line with Error e -> Failed e | Ok resp -> step s resp
         with
        | Next req -> send i req
        | Finished -> s.outcome <- Some (Ok ())
        | Failed e -> s.outcome <- Some (Error e));
        loop ()
  in
  loop ()

(* One thread and one connection per group of slots; returns once every
   slot has an outcome. *)
let drive ~framing ~receive_timeout ~address groups =
  let settle slots e =
    Array.iter (fun s -> if s.outcome = None then s.outcome <- Some (Error e)) slots
  in
  let one slots =
    match connect ~framing ~receive_timeout address with
    | Error e -> settle slots e
    | Ok conn ->
      (try pump conn slots
       with exn -> settle slots (diverged "%s" (Printexc.to_string exn)));
      Wire.close conn
  in
  List.iter Thread.join (List.map (Thread.create one) groups)

let report_of s =
  report ~seed:s.seed ~strategy:s.strategy ~questions:s.asked
    (Option.value s.outcome ~default:(Error (diverged "session never completed")))

let by_seed reports =
  List.sort (fun (a : client_report) b -> compare a.seed b.seed) reports

let drill ~framing ~receive_timeout ~address groups =
  drive ~framing ~receive_timeout ~address groups;
  by_seed (List.concat_map (fun g -> List.map report_of (Array.to_list g)) groups)

let strategy_for i = if i mod 2 = 0 then "lookahead-entropy" else "random"

let run ?(clients = 32) ?(framing = Wire.Line)
    ?(receive_timeout = default_receive_timeout) ?instance ?(seed_offset = 0)
    ~address () =
  drill ~framing ~receive_timeout ~address
    (List.init clients (fun i ->
         [|
           slot ?instance ~seed:(100 + seed_offset + i) ~strategy:(strategy_for i) ();
         |]))

let run_pipelined ?(clients = 4) ?(pipeline = 8) ?(framing = Wire.Line)
    ?(receive_timeout = default_receive_timeout) ?(seed_offset = 0) ~address () =
  drill ~framing ~receive_timeout ~address
    (List.init clients (fun ci ->
         Array.init pipeline (fun k ->
             slot
               ~seed:(700 + seed_offset + (ci * pipeline) + k)
               ~strategy:(strategy_for k) ())))

(* ------------------------------------------------------------------ *)
(* Catalog drill: register once, start every client by fingerprint, and
   return the server's catalog counters for the caller to assert on
   (hits > 0, exactly one derivation). *)

let catalog_smoke ?(clients = 2) ?(instance = 7) ?(framing = Wire.Line)
    ?(receive_timeout = default_receive_timeout) ~address () =
  let request conn what req accept =
    match call conn req with
    | Ok resp -> (
      match accept resp with
      | Some x -> Ok x
      | None ->
        Error ("unexpected reply to " ^ what ^ ": " ^ P.response_to_string resp))
    | Error { msg; _ } -> Error msg
  in
  match connect ~framing ~receive_timeout address with
  | Error { msg; _ } -> Error msg
  | Ok conn ->
    let result =
      let* fp =
        request conn "Register_instance"
          (P.Register_instance { source = synthetic_source instance })
          (function P.Registered { fingerprint; _ } -> Some fingerprint | _ -> None)
      in
      let reports =
        drill ~framing ~receive_timeout ~address
          (List.init clients (fun i ->
               [| slot ~instance ~source:(P.Catalog fp) ~seed:(500 + i)
                    ~strategy:(strategy_for i) () |]))
      in
      let* stats =
        request conn "Catalog_stats" P.Catalog_stats (function
          | P.Catalog_info c -> Some c
          | _ -> None)
      in
      Ok (reports, stats)
    in
    Wire.close conn;
    result

(* ------------------------------------------------------------------ *)
(* Crash drill: leave sessions half-answered, let the caller SIGKILL the
   server, then resume against the restarted one and hold it to the same
   bit-identical bar as an uninterrupted run. *)

let crash_start ?(framing = Wire.Line) ~address ~state_file ?(clients = 8)
    ?(receive_timeout = default_receive_timeout) () =
  (* Half the reference run's interactions: enough history to make
     recovery non-trivial, with real work left for the resume. *)
  let half (e : Session.outcome) = max 1 (e.interactions / 2) in
  let groups =
    List.init clients (fun i ->
        [| slot ~stop_after:half ~seed:(100 + i) ~strategy:(strategy_for i) () |])
  in
  drive ~framing ~receive_timeout ~address groups;
  let slots = List.map (fun g -> g.(0)) groups in
  let parked = List.filter (fun s -> s.outcome = Some (Ok ())) slots in
  Out_channel.with_open_text state_file (fun oc ->
      List.iter (output_string oc)
        (List.sort compare
           (List.map
              (fun s ->
                Printf.sprintf "%d %s %d %d\n" s.seed s.strategy s.session s.asked)
              parked)));
  by_seed (List.map report_of slots)

let crash_resume ?(framing = Wire.Line) ~address ~state_file
    ?(receive_timeout = default_receive_timeout) () =
  let* lines =
    match In_channel.with_open_text state_file In_channel.input_lines with
    | lines -> Ok lines
    | exception Sys_error e -> Error e
  in
  (* A line that does not parse becomes a failed report in its place. *)
  let parsed =
    List.map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ seed; strategy; session; asked ] -> (
          match
            ( int_of_string_opt seed,
              Strategy.of_string strategy,
              int_of_string_opt session,
              int_of_string_opt asked )
          with
          | Some seed, Ok _, Some session, Some already ->
            Ok (slot ~resume:(session, already) ~seed ~strategy ())
          | _ -> Error line)
        | _ -> Error line)
      lines
  in
  let slots = List.filter_map Result.to_option parsed in
  drive ~framing ~receive_timeout ~address (List.map (fun s -> [| s |]) slots);
  Ok
    (List.map
       (function
         | Ok s -> report_of s
         | Error line ->
           report ~seed:0 ~strategy:"" ~questions:0
             (Error (diverged "bad state line: %s" line)))
       parsed)

let busy_check ?(framing = Wire.Line)
    ?(receive_timeout = default_receive_timeout) ~address ~fill () =
  match connect ~framing ~receive_timeout address with
  | Error { msg; _ } -> Error msg
  | Ok conn ->
    (* A server that neither accepts nor refuses the overflow session —
       it just never replies — must fail the drill, not hang it. *)
    let start seed =
      call conn
        (P.Start_session
           { source = P.Builtin "flights"; strategy = "random"; seed })
    in
    let finish r =
      Wire.close conn;
      match r with Ok () -> Ok () | Error { msg; _ } -> Error msg
    in
    let rec open_all acc k =
      if k = 0 then Ok acc
      else
        let* resp = start k in
        match resp with
        | P.Started { session; _ } -> open_all (session :: acc) (k - 1)
        | other -> unexpected "Start_session (fill)" other
    in
    finish
      (let* sessions = open_all [] fill in
       let* overflow = start 0 in
       let verdict =
         match overflow with
         | P.Failed (P.Server_busy { active; max })
           when active >= fill && max = fill -> Ok ()
         | P.Failed (P.Server_busy { active; max }) ->
           Error
             (diverged "Server_busy with odd counters: active=%d max=%d"
                active max)
         | other -> unexpected "saturated Start_session" other
       in
       List.iter
         (fun session -> ignore (call conn (P.End_session { session })))
         sessions;
       verdict)

(* ------------------------------------------------------------------ *)
(* Crowd drill: one controller session, [labelers] concurrent labeler
   clients each attaching, polling the voting round and casting a
   (possibly noise-flipped) ballot, until the session converges.  Each
   labeler draws exactly one label per round it sees — its noise stream
   is seeded, so which answers are wrong is deterministic per (labeler
   seed, round sequence), independent of scheduling.  The aggregate the
   server absorbs is the only event that reaches the journal. *)

type labeler_spec = {
  error_rate : float;
  labeler_seed : int;
  labeler_address : Wire.address option;
      (* connect here instead of the controller's address — e.g. through
         a chaos proxy to make this labeler slow or absent *)
}

let perfect_labeler seed = { error_rate = 0.; labeler_seed = seed; labeler_address = None }

type crowd_report = {
  creport : client_report;
  crowd : P.crowd_stats option;  (* server counters, when fetchable *)
  got : Session.outcome option;  (* the wire outcome, when reached *)
  reference : Session.outcome;  (* noiseless Session.run on the instance *)
}

(* One labeler client.  Returns how many ballots were cast and how many
   the server counted (stale ballots — rounds closed by quorum or
   deadline before ours landed — are the difference). *)
let run_labeler ?(framing = Wire.Line)
    ?(receive_timeout = default_receive_timeout) ?(poll_interval = 0.002)
    ~address ~session ~oracle () =
  let* conn = connect ~framing ~receive_timeout address in
  let r =
    match
      let* resp = call conn (P.Labeler_attach { session }) in
      let* labeler =
        match resp with
        | P.Labeler_attached { labeler; _ } -> Ok labeler
        | P.Failed e -> Error (diverged "%s" (P.error_to_string e))
        | other -> unexpected "Labeler_attach" other
      in
      let rec loop last_round cast counted =
        let* q = call conn (P.Labeler_poll { session; labeler }) in
        match q with
        | P.Crowd_question { question = None; _ } -> Ok (cast, counted)
        | P.Crowd_question { round; question = Some { P.sg; _ } } ->
          if round = last_round then begin
            (* already voted this round; wait for the quorum *)
            Thread.delay poll_interval;
            loop last_round cast counted
          end
          else
            let label = Oracle.label oracle sg in
            let* v = call conn (P.Vote { session; labeler; round; label }) in
            (match v with
            | P.Vote_ok { counted = c; _ } ->
              loop round (cast + 1) (counted + if c then 1 else 0)
            | P.Failed e -> Error (diverged "%s" (P.error_to_string e))
            | other -> unexpected "Vote" other)
        | P.Failed (P.Unknown_session _) ->
          Ok (cast, counted) (* the controller gave up and ended it *)
        | P.Failed e -> Error (diverged "%s" (P.error_to_string e))
        | other -> unexpected "Labeler_poll" other
      in
      loop 0 0 0
    with
    | r -> r
    | exception exn -> Error (diverged "%s" (Printexc.to_string exn))
  in
  Wire.close conn;
  r

type crowd_harvest = {
  converged : (bool, fail) result;
  counters : P.crowd_stats option;
  outcome : Session.outcome option;
}

let crowd_control ?(framing = Wire.Line)
    ?(receive_timeout = default_receive_timeout) ?(poll_interval = 0.002)
    ?(deadline = 120.) ?(on_start = ignore) ~address ~seed ~strategy () =
  let* conn = connect ~framing ~receive_timeout address in
  let harvest =
    let* started =
      call conn (P.Start_session { source = synthetic_source seed; strategy; seed })
    in
    let* session =
      match started with
      | P.Started { session; _ } -> Ok session
      | P.Failed e -> Error (diverged "%s" (P.error_to_string e))
      | other -> unexpected "Start_session" other
    in
    on_start session;
    let t0 = Unix.gettimeofday () in
    let rec wait_done () =
      if Unix.gettimeofday () -. t0 > deadline then Ok false
      else
        let* q = call conn (P.Get_question { session }) in
        match q with
        | P.Question None -> Ok true
        | P.Question (Some _) ->
          Thread.delay poll_interval;
          wait_done ()
        | P.Failed e -> Error (diverged "%s" (P.error_to_string e))
        | other -> unexpected "Get_question" other
    in
    let converged =
      try wait_done () with exn -> Error (diverged "%s" (Printexc.to_string exn))
    in
    (* Harvest before ending: the coordinator's counters die with the
       session. *)
    let counters =
      match call conn (P.Crowd_stats { session }) with
      | Ok (P.Crowd_info c) -> Some c
      | _ -> None
    in
    let outcome =
      match call conn (P.Result { session }) with
      | Ok (P.Outcome o) -> Some o
      | _ -> None
    in
    ignore (call conn (P.End_session { session }));
    Ok { converged; counters; outcome }
  in
  Wire.close conn;
  harvest

let crowd_run ?(framing = Wire.Line)
    ?(receive_timeout = default_receive_timeout) ?(poll_interval = 0.002)
    ?(deadline = 120.) ~address ~seed ~strategy ~labelers () =
  let goal_oracle, reference = reference ~instance_seed:seed ~seed ~strategy in
  let fails = Array.make (List.length labelers) None in
  let threads = ref [] in
  let spawn session =
    threads :=
      List.mapi
        (fun i spec ->
          Thread.create
            (fun () ->
              let oracle =
                Oracle.noisy ~seed:spec.labeler_seed
                  ~flip_probability:spec.error_rate goal_oracle
              in
              let address = Option.value spec.labeler_address ~default:address in
              match
                run_labeler ~framing ~receive_timeout ~poll_interval ~address
                  ~session ~oracle ()
              with
              | Ok _ -> ()
              | Error e -> fails.(i) <- Some e)
            ())
        labelers
  in
  let harvest =
    crowd_control ~framing ~receive_timeout ~poll_interval ~deadline
      ~on_start:spawn ~address ~seed ~strategy ()
  in
  List.iter Thread.join !threads;
  match harvest with
  | Error e ->
    { creport = report ~seed ~strategy ~questions:0 (Error e);
      crowd = None; got = None; reference }
  | Ok { converged; counters = crowd; outcome = got } ->
    let questions = match crowd with Some c -> c.P.rounds | None -> 0 in
    let labeler_fail =
      Array.find_map
        (function Some e when not e.transport -> Some e | _ -> None)
        fails
    in
    let outcome =
      match (converged, labeler_fail, got) with
      | Error e, _, _ -> Error e
      | _, Some e, _ -> Error e
      | Ok false, _, _ ->
        Error (diverged "no convergence within %.0f s deadline" deadline)
      | Ok true, None, None -> Error (diverged "no outcome after convergence")
      | Ok true, None, Some got ->
        if List.for_all (fun s -> s.error_rate = 0.) labelers then
          (* Perfect crowd: the whole transcript must be bit-identical
             to the noiseless in-process run. *)
          if outcome_equal reference got then Ok ()
          else
            Error
              (differs "crowd outcome differs from local Session.run" ~got
                 ~want:reference)
        else Ok () (* noisy: the caller judges [got] against [reference] *)
    in
    { creport = report ~seed ~strategy ~questions outcome; crowd; got; reference }
