(* jim — the Join Inference Machine, at the terminal.

   Subcommands:
     demo      the guided four-mode demonstration on the paper's instance
     infer     interactive inference on a CSV file (a human labels tuples)
     compare   strategy comparison on a synthetic or built-in instance
     setcards  the joining-sets-of-pictures scenario (Fig. 5)
     tpch      crowd-style join tasks over the TPC-H-lite database
     serve     the session server (line-delimited JSON over a socket)
     standby   warm replica of a --replicate-to server; serves on promote
     router    consistent-hash front over several shards, with failover
     client    talk to a running server (batch / smoke / busy-check / crash drill)
     instance  register CSVs into a running server's catalog
     journal   inspect, verify or export from a durable data directory *)

module Partition = Jim_partition.Partition
module Relation = Jim_relational.Relation
module Schema = Jim_relational.Schema
module Csv = Jim_relational.Csv
module W = Jim_workloads
module Node = Jim_shard.Node
open Jim_core

let strategy_arg =
  let open Cmdliner in
  let doc =
    "Strategy for proposing tuples: " ^ String.concat ", " Strategy.names ^ "."
  in
  Arg.(
    value
    & opt string "lookahead-entropy"
    & info [ "s"; "strategy" ] ~docv:"STRATEGY" ~doc)

(* ------------------------------------------------------------------ *)
(* Interactive loop shared by `infer`, `demo -i` and `setcards -i`.    *)

let save_transcript eng = function
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Transcript.to_string (Transcript.of_engine eng)));
    Printf.printf "Transcript written to %s\n" path

let interactive_loop ?(describe_row = fun rel r ->
    Jim_relational.Tuple0.to_string (Relation.tuple rel r))
    ?transcript ?eng ~strategy rel =
  let eng = match eng with Some e -> e | None -> Session.create rel in
  let rng = Random.State.make_self_init () in
  let src = Jim_tui.Prompt.stdin_source in
  let schema = Relation.schema rel in
  let rec loop () =
    match Session.question eng strategy rng with
    | None ->
      let q = Session.result eng in
      Printf.printf "\nInferred join predicate: %s\n"
        (Jim_tui.Render.partition_line schema q);
      Printf.printf "SQL: %s\n"
        (Jquery.to_sql ~from:[ Relation.name rel ] (Jquery.make schema q));
      (match Minimal.most_general (Session.state eng) with
      | [ mg ] when not (Jim_partition.Partition.equal mg q) ->
        Printf.printf "Most general equivalent: %s\n"
          (Jim_tui.Render.partition_line schema mg)
      | _ -> ());
      save_transcript eng transcript;
      `Done
    | Some ci ->
      let row = Sigclass.representative (Session.classes eng).(ci) in
      print_newline ();
      print_string (Jim_tui.Render.engine_view eng rel);
      print_string (Jim_tui.Progress.panel (Stats.of_engine eng));
      let question =
        Printf.sprintf "Should this tuple be in the join result?\n  %s\n"
          (describe_row rel row)
      in
      (match Jim_tui.Prompt.ask_label src question with
      | Jim_tui.Prompt.Quit ->
        print_endline "Session aborted.";
        save_transcript eng transcript;
        `Aborted
      | Jim_tui.Prompt.Help ->
        print_endline
          "Answer y if the shown tuple belongs to the join result you have \
           in mind, n otherwise; q aborts.  Grayed-out rows and why:";
        Array.iteri
          (fun r _ ->
            if Session.row_status eng r <> State.Informative then
              Printf.printf "  row %d: %s\n" (r + 1)
                (Explain.to_string schema (Session.explain_row eng r)))
          (Array.of_list (Relation.tuples rel));
        loop ()
      | Jim_tui.Prompt.Undo ->
        (match Session.undo eng with
        | Ok () -> print_endline "Last answer retracted."
        | Error _ -> print_endline "Nothing to undo.");
        loop ()
      | Jim_tui.Prompt.Yes | Jim_tui.Prompt.No as a ->
        let label =
          if a = Jim_tui.Prompt.Yes then State.Pos else State.Neg
        in
        (match Session.answer eng ci label with
        | Ok () -> loop ()
        | Error e ->
          Printf.printf "%s  (Last answer discarded.)\n"
            (String.capitalize_ascii (Session.error_to_string e));
          loop ()))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* demo                                                                *)

(* Replay the paper's Section-2 narrative screen by screen: each answer,
   the grayed-out table, the statistics, and the certificates. *)
let run_walkthrough strategy =
  let instance = W.Flights.instance in
  let schema = W.Flights.schema in
  let goal = W.Flights.q2 in
  let oracle = Oracle.of_goal goal in
  let eng = Session.create instance in
  let rng = Random.State.make [| 0 |] in
  Printf.printf "Goal the simulated user has in mind: %s\n\n"
    (Jim_tui.Render.partition_line schema goal);
  print_string (Jim_tui.Render.engine_view eng instance);
  print_string (Jim_tui.Progress.panel (Stats.of_engine eng));
  let step = ref 0 in
  let rec go () =
    match Session.question eng strategy rng with
    | None ->
      Printf.printf "\nNo informative tuple left: unique up to \
                     instance-equivalence.\nInferred: %s\n"
        (Jim_tui.Render.partition_line schema (Session.result eng));
      0
    | Some ci ->
      incr step;
      let row = Sigclass.representative (Session.classes eng).(ci) in
      let sg = (Session.classes eng).(ci).Sigclass.sg in
      let label = Oracle.label oracle sg in
      Printf.printf "\n--- question %d: tuple (%d) -> user answers %s ---\n"
        !step (row + 1)
        (match label with State.Pos -> "yes (+)" | State.Neg -> "no (-)");
      (match Session.answer eng ci label with
      | Ok () -> ()
      | Error _ -> assert false);
      print_string (Jim_tui.Render.engine_view eng instance);
      print_string (Jim_tui.Progress.panel (Stats.of_engine eng));
      (* Certificates for what just got grayed out. *)
      Array.iteri
        (fun r _ ->
          if Session.row_status eng r <> State.Informative then
            Printf.printf "  (%d) %s\n" (r + 1)
              (Explain.to_string schema (Session.explain_row eng r)))
        (Array.of_list (Jim_relational.Relation.tuples instance));
      go ()
  in
  go ()

let run_demo interactive walkthrough strategy_name =
  match Strategy.of_string strategy_name with
  | Error e ->
    prerr_endline e;
    1
  | Ok strategy ->
    let instance = W.Flights.instance in
    Printf.printf
      "JIM demo - the travel agency's flight&hotel packages (Fig. 1)\n\n";
    print_string (Jim_tui.Render.table instance);
    if walkthrough then run_walkthrough strategy
    else if interactive then begin
      print_endline
        "\nThink of a join predicate over (From, To, Airline, City, \
         Discount)\n\
         - for instance To = City, or To = City AND Airline = Discount -\n\
         and answer the questions.";
      match interactive_loop ~strategy instance with `Done | `Aborted -> 0
    end
    else begin
      let goal = W.Flights.q2 in
      let oracle = Oracle.of_goal goal in
      Printf.printf "\nSimulated user goal: %s\n\n"
        (Jim_tui.Render.partition_line W.Flights.schema goal);
      let order = List.init (Relation.cardinality instance) (fun i -> i) in
      let r1 = Interaction.mode1_label_all ~order ~oracle instance in
      let r2 = Interaction.mode2_gray_out ~order ~oracle instance in
      let r3 = Interaction.mode3_top_k ~k:3 ~strategy ~oracle instance in
      let r4 = Interaction.mode4_interactive ~strategy ~oracle instance in
      print_string
        (Jim_tui.Barchart.benefit
           ~baseline:("1 label everything", r1.Interaction.labels_given)
           [
             ("2 gray out", r2.Interaction.labels_given);
             ("3 top-3", r3.Interaction.labels_given);
             ("4 JIM", r4.Interaction.labels_given);
           ]);
      Printf.printf "\nInferred (mode 4): %s\n"
        (Jim_tui.Render.partition_line W.Flights.schema r4.Interaction.query);
      0
    end

(* ------------------------------------------------------------------ *)
(* infer                                                               *)

let run_infer path strategy_name transcript replay_path =
  match Strategy.of_string strategy_name with
  | Error e ->
    prerr_endline e;
    1
  | Ok strategy -> (
    match Csv.load_auto path with
    | Error e ->
      Printf.eprintf "cannot load %s: %s\n" path e;
      1
    | Ok rel ->
      Printf.printf "Loaded %s: %d tuples, schema %s\n" path
        (Relation.cardinality rel)
        (Schema.to_string (Relation.schema rel));
      let replayed =
        match replay_path with
        | None -> Ok None
        | Some rp -> (
          let ic = open_in rp in
          let text =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          match Transcript.of_string text with
          | Error e -> Error (Printf.sprintf "bad transcript %s: %s" rp e)
          | Ok t -> (
            let eng = Session.create rel in
            match Transcript.replay t eng with
            | Ok () ->
              Printf.printf "Replayed %d labels from %s.\n"
                (List.length t.Transcript.entries)
                rp;
              Ok (Some eng)
            | Error `Contradiction ->
              Error "transcript contradicts this instance"
            | Error `Arity_mismatch ->
              Error "transcript arity does not match this instance"))
      in
      match replayed with
      | Error e ->
        prerr_endline e;
        1
      | Ok eng -> (
        match interactive_loop ?transcript ?eng ~strategy rel with
        | `Done | `Aborted -> 0))

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let run_compare n_attrs rank tuples seed =
  let inst =
    W.Synthetic.generate
      {
        W.Synthetic.n_attrs;
        n_tuples = tuples;
        domain = max n_attrs 8;
        goal_rank = rank;
        seed;
      }
  in
  Printf.printf "Synthetic instance: %d attributes, %d tuples, goal %s\n\n"
    n_attrs tuples
    (Partition.to_string_names (Schema.names inst.W.Synthetic.schema)
       inst.W.Synthetic.goal);
  let oracle = Oracle.of_goal inst.W.Synthetic.goal in
  let counts =
    List.map
      (fun strat ->
        Metrics.reset ();
        let o =
          Session.run ~strategy:strat ~oracle inst.W.Synthetic.relation
        in
        Printf.printf "  %-20s %s\n" strat.Strategy.name
          (Metrics.to_string (Metrics.snapshot ()));
        (strat.Strategy.name, o.Session.interactions))
      Strategy.all
  in
  print_newline ();
  print_string (Jim_tui.Barchart.render (Jim_tui.Barchart.of_counts counts));
  0

(* ------------------------------------------------------------------ *)
(* setcards                                                            *)

let run_setcards interactive strategy_name sample =
  match Strategy.of_string strategy_name with
  | Error e ->
    prerr_endline e;
    1
  | Ok strategy ->
    let instance = W.Setcards.pair_instance ~sample ~seed:5 () in
    let describe_row rel r =
      W.Setcards.pair_to_string (Relation.tuple rel r)
    in
    if interactive then begin
      print_endline
        "Think of a rule for pairing Set cards (e.g. same colour and same \
         shading) and answer the questions.";
      match interactive_loop ~describe_row ~strategy instance with
      | `Done | `Aborted -> 0
    end
    else begin
      let goal = W.Setcards.same [ "colour"; "shading" ] in
      let oracle = Oracle.of_goal goal in
      let outcome = Session.run ~strategy ~oracle instance in
      Printf.printf "Goal: same colour and same shading\n";
      List.iter
        (fun (e : Session.event) ->
          Printf.printf "  %s -> %s\n"
            (describe_row instance e.Session.row)
            (match e.Session.label with State.Pos -> "yes" | State.Neg -> "no"))
        outcome.Session.events;
      Printf.printf "Inferred in %d questions: %s\n"
        outcome.Session.interactions
        (Jim_tui.Render.partition_line W.Setcards.pair_schema
           outcome.Session.query);
      0
    end

(* ------------------------------------------------------------------ *)
(* tpch                                                                *)

let run_tpch strategy_name =
  match Strategy.of_string strategy_name with
  | Error e ->
    prerr_endline e;
    1
  | Ok strategy ->
    let db = W.Tpch.generate ~seed:2 W.Tpch.tiny in
    let tasks =
      [
        ("customer-orders", W.Tpch.fk_customer_orders);
        ("orders-lineitem", W.Tpch.fk_orders_lineitem);
        ("region-nation-customer", W.Tpch.fk_nation_chain);
      ]
    in
    List.iter
      (fun (name, spec) ->
        match W.Denorm.task_of_names ~sample:300 ~seed:3 db spec with
        | Error e -> Printf.eprintf "%s: %s\n" name e
        | Ok task ->
          let outcome =
            Session.run ~strategy ~oracle:(W.Denorm.oracle task)
              task.W.Denorm.instance
          in
          let cross =
            Partition.restrict outcome.Session.query
              ~allowed:task.W.Denorm.cross_only
          in
          Printf.printf "%-24s %2d questions   %s\n" name
            outcome.Session.interactions
            (Jquery.to_sql ~from:task.W.Denorm.sources
               (Jquery.make task.W.Denorm.schema cross)))
      tasks;
    0

(* ------------------------------------------------------------------ *)
(* serve / client: the wire protocol                                   *)

let resolve_address socket tcp =
  match (socket, tcp) with
  | Some _, Some _ -> Error "--socket and --tcp are mutually exclusive"
  | Some path, None -> Ok (Jim_server.Wire.Unix_path path)
  | None, Some spec -> (
    match Jim_server.Wire.address_of_string spec with
    | Ok (Jim_server.Wire.Tcp _ as a) -> Ok a
    | Ok (Jim_server.Wire.Unix_path _) -> Error "--tcp wants HOST:PORT"
    | Error e -> Error e)
  | None, None -> Ok Jim_server.Wire.default_address

let crowd_stats_line (c : Jim_api.Protocol.crowd_stats) =
  Printf.sprintf
    "crowd: %d labelers, quorum %d%s; %d rounds, %d paid labels, %d majority \
     flips, %d timeouts, %d re-asks"
    c.Jim_api.Protocol.labelers c.Jim_api.Protocol.votes
    (if c.Jim_api.Protocol.weighted then " (weighted)" else "")
    c.Jim_api.Protocol.rounds c.Jim_api.Protocol.paid_labels
    c.Jim_api.Protocol.majority_flips c.Jim_api.Protocol.timeouts
    c.Jim_api.Protocol.re_asks

(* The serving subcommands: parse flags into a start-up (a usage error
   exits 2), run it through [Node.start] (a failure exits [start_fails]),
   print the banner, then serve until the listener shuts down.  SIGTERM
   and SIGINT start that shutdown; the node is then stopped, a last
   stats line is printed under [--stats-every] and the exit code is 0.
   A listener that ends on its own (its loop failed) ends the process
   the same way. *)
let serve_node name ?stats_every ?(start_fails = 1) start =
  let fail code e =
    Printf.eprintf "jim %s: %s\n" name e;
    code
  in
  match Result.map (fun start -> start ()) start with
  | Error e -> fail 2 e
  | Ok (Error e) -> fail start_fails e
  | Ok (Ok node) ->
    let say line = Printf.printf "jim %s: %s\n%!" name line in
    List.iter say (Node.banner node);
    (* The handler may run on any thread, the event loop's included: it
       only starts the shutdown, and this thread finishes it.  Blocking
       the two signals here, after the loop's thread exists, makes the
       kernel deliver them to the loop, whose wait they interrupt, so
       the handler runs at once. *)
    let request_stop = Sys.Signal_handle (fun _ -> Node.request_stop node) in
    (try
       ignore (Sys.signal Sys.sigint request_stop);
       ignore (Sys.signal Sys.sigterm request_stop)
     with Invalid_argument _ -> ());
    ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigint; Sys.sigterm ]);
    Option.iter
      (fun period ->
        ignore
          (Thread.create
             (fun () ->
               while true do
                 Thread.delay period;
                 say (Node.stats_line node)
               done)
             ()))
      stats_every;
    Node.wait node;
    Node.stop node;
    Option.iter (fun _ -> say (Node.stats_line node)) stats_every;
    0

let ( let* ) = Result.bind

let run_serve socket tcp settings wire data_dir snapshot_every stats_every
    replicate_to =
  serve_node "serve" ?stats_every
    (let* listen = resolve_address socket tcp in
     let* settings = settings in
     Ok
       (fun () ->
         (* a bad --replicate-to fails start-up, as a failed attach does *)
         let* replicate_to =
           match replicate_to with
           | None -> Ok None
           | Some _ when data_dir = None ->
             Error "--replicate-to needs --data-dir (nothing durable to ship)"
           | Some spec ->
             Result.map
               (fun a -> Some (Jim_shard.Front.wire_target ~name:"replica" a))
               (Jim_server.Wire.address_of_string spec)
         in
         Node.start
           {
             (Node.config (Node.Primary { data_dir; replicate_to })) with
             listen;
             wire;
             settings;
             snapshot_every;
           }))

(* standby: the receiving half of the replication stream               *)

let run_standby socket tcp settings wire data_dir snapshot_every =
  serve_node "standby"
    (let* listen = resolve_address socket tcp in
     let* settings = settings in
     Ok
       (fun () ->
         Node.start
           {
             (Node.config (Node.Standby { data_dir })) with
             listen;
             wire;
             settings;
             snapshot_every;
           }))

(* router: the consistent-hash front over the shards                   *)

(* --shard/--standby take NAME=ADDR; the names key the hash ring, so
   they must be stable across restarts for placements to replay. *)
let parse_named what spec =
  match String.index_opt spec '=' with
  | None | Some 0 ->
    Error (Printf.sprintf "--%s wants NAME=ADDR, got %S" what spec)
  | Some i -> (
    let name = String.sub spec 0 i in
    let addr = String.sub spec (i + 1) (String.length spec - i - 1) in
    match Jim_server.Wire.address_of_string addr with
    | Ok a -> Ok (name, a)
    | Error e -> Error (Printf.sprintf "--%s %s: %s" what name e))

let rec parse_all what = function
  | [] -> Ok []
  | spec :: rest ->
    let* p = parse_named what spec in
    Result.map (fun ps -> p :: ps) (parse_all what rest)

let run_router socket tcp wire shard_specs standby_specs data_dir vnodes =
  (* every router start-up failure exits 2, a bad router log included *)
  serve_node "router" ~start_fails:2
    (let* listen = resolve_address socket tcp in
     let* shards = parse_all "shard" shard_specs in
     let* standbys = parse_all "standby" standby_specs in
     match List.find_opt (fun (n, _) -> not (List.mem_assoc n shards)) standbys with
     | Some (n, _) -> Error (Printf.sprintf "--standby %s names no --shard" n)
     | None ->
       let shards =
         List.map
           (fun (name, primary) ->
             let standby = List.assoc_opt name standbys in
             Jim_shard.Front.wire_upstream ~name ~primary ?standby ())
           shards
       in
       Ok
         (fun () ->
           Node.start
             {
               (Node.config (Node.Router { data_dir; vnodes; shards })) with
               listen;
               wire;
             }))

(* Exit-code policy: a drill passes only when every expected report came
   back and none of them diverged.  An empty (or short) report list is a
   failure — a driver thread dying or an empty state file must not read
   as "0/0 sessions ok".  Transport drops fail too unless the caller
   opted in with --tolerate-drops (chaos-proxy runs, where drops are the
   injected fault). *)
let print_reports ?expected ~tolerate_drops verdict reports =
  let diverged, dropped =
    List.partition
      (fun r -> not r.Jim_server.Smoke.dropped)
      (List.filter (fun r -> not r.Jim_server.Smoke.ok) reports)
  in
  List.iter
    (fun r ->
      let open Jim_server.Smoke in
      if r.ok then
        Printf.printf "seed %d %-18s ok (%d questions)\n" r.seed r.strategy
          r.questions
      else if r.dropped then
        Printf.printf "seed %d %-18s %s: %s\n" r.seed r.strategy
          (if tolerate_drops then "dropped (tolerated)" else "DROPPED")
          r.detail
      else
        Printf.printf "seed %d %-18s FAILED: %s\n" r.seed r.strategy r.detail)
    reports;
  Printf.printf "%d/%d sessions %s%s\n"
    (List.length reports - List.length diverged - List.length dropped)
    (List.length reports) verdict
    (if dropped = [] then ""
     else Printf.sprintf " (%d dropped)" (List.length dropped));
  if reports = [] then begin
    Printf.eprintf "jim client: no sessions ran at all\n";
    1
  end
  else
    match expected with
    | Some n when List.length reports <> n ->
      Printf.eprintf "jim client: expected %d reports, got %d\n" n
        (List.length reports);
      1
    | _ ->
      if diverged <> [] then 1
      else if dropped <> [] && not tolerate_drops then 1
      else 0

(* An interactive session on an already-cataloged instance, over the
   wire: the client ships no data (just the fingerprint) and holds no
   relation, so questions are shown as the representative row index plus
   the signature partition the server sent. *)
let run_client_instance ~address ~framing ~fp ~strategy ~seed =
  let module P = Jim_api.Protocol in
  let module Wire = Jim_server.Wire in
  match Wire.connect ~retries:50 ~framing address with
  | Error e ->
    Printf.eprintf "jim client: connect: %s\n" e;
    1
  | Ok conn ->
    let finish rc =
      Wire.close conn;
      rc
    in
    let fail what e =
      Printf.eprintf "jim client: %s: %s\n" what e;
      finish 1
    in
    let call what req k =
      match Wire.call conn req with
      | Error e -> fail what e
      | Ok (P.Failed err) -> fail what (P.error_to_string err)
      | Ok reply -> k reply
    in
    call "start"
      (P.Start_session { source = P.Catalog fp; strategy; seed })
    @@ function
    | P.Started { session; arity; classes; tuples; strategy } ->
      Printf.printf
        "Session %d on instance %s: arity %d, %d classes, %d tuples, %s\n"
        session fp arity classes tuples strategy;
      let src = Jim_tui.Prompt.stdin_source in
      let rec loop () =
        call "question" (P.Get_question { session }) @@ function
        | P.Question None ->
          (call "result" (P.Result { session }) @@ function
           | P.Outcome o ->
             Printf.printf "\nInferred join predicate: %s\n"
               (Partition.to_string o.Session.query);
             call "end" (P.End_session { session }) @@ fun _ -> finish 0
           | other -> fail "result" (P.response_to_string other))
        | P.Question (Some q) ->
          let question =
            Printf.sprintf
              "Should this tuple be in the join result?\n\
              \  row (%d), signature %s\n"
              (q.P.row + 1)
              (Partition.to_string q.P.sg)
          in
          (match Jim_tui.Prompt.ask_label src question with
          | Jim_tui.Prompt.Quit ->
            print_endline "Session aborted.";
            call "end" (P.End_session { session }) @@ fun _ -> finish 0
          | Jim_tui.Prompt.Help ->
            print_endline
              "Answer y if the shown tuple belongs to the join result you \
               have in mind, n otherwise; u retracts, q aborts.  The \
               signature partition groups the attributes whose values \
               coincide on that row.";
            loop ()
          | Jim_tui.Prompt.Undo ->
            (call "undo" (P.Undo { session }) @@ fun _ ->
             print_endline "Last answer retracted.";
             loop ())
          | (Jim_tui.Prompt.Yes | Jim_tui.Prompt.No) as a ->
            let label =
              if a = Jim_tui.Prompt.Yes then State.Pos else State.Neg
            in
            call "answer" (P.Answer { session; cls = q.P.cls; label })
            @@ fun _ -> loop ())
        | other -> fail "question" (P.response_to_string other)
      in
      loop ()
    | other -> fail "start" (P.response_to_string other)

(* Controller half of the multi-process crowd drill: start the session,
   announce its id (the drill script hands it to the jim labeler
   processes), wait for convergence and judge the inferred predicate
   against the noiseless reference run. *)
let run_client_crowd ~address ~framing ~seed ~strategy:strategy_name ~deadline
    ~receive_timeout ~expect_flips =
  let module P = Jim_api.Protocol in
  let module Smoke = Jim_server.Smoke in
  match Strategy.of_string strategy_name with
  | Error e ->
    prerr_endline e;
    2
  | Ok _ -> (
    let _, reference =
      Smoke.reference ~instance_seed:seed ~seed ~strategy:strategy_name
    in
    let fail fmt =
      Printf.ksprintf (fun e -> Printf.eprintf "jim client: %s\n" e; 1) fmt
    in
    let announce session =
      Printf.printf "jim client: crowd session %d started (instance seed %d)\n%!"
        session seed
    in
    match
      Smoke.crowd_control ~framing ~receive_timeout ~poll_interval:0.05
        ~deadline ~on_start:announce ~address ~seed ~strategy:strategy_name ()
    with
    | Error { msg; _ } | Ok { converged = Error { msg; _ }; _ } -> fail "%s" msg
    | Ok { converged = Ok false; _ } ->
      fail "crowd: no convergence within %.0f s (are enough jim labeler \
            processes attached?)" deadline
    | Ok { counters = Some c; outcome = Some o; _ } ->
      print_endline (crowd_stats_line c);
      if not (Partition.equal o.Session.query reference.Session.query) then
        fail "crowd diverged: inferred %s, reference %s"
          (Partition.to_string o.Session.query)
          (Partition.to_string reference.Session.query)
      else if expect_flips && c.P.majority_flips = 0 then
        fail
          "crowd converged but the majority never overruled a dissenting \
           ballot (expected under the drill's seeded noise)"
      else begin
        Printf.printf
          "jim client: crowd converged to the goal predicate in %d rounds (%d \
           paid labels)\n"
          c.P.rounds c.P.paid_labels;
        0
      end
    | Ok _ -> fail "crowd: converged, but its counters or outcome were lost")

let run_labeler socket tcp binary session instance error_rate labeler_seed
    poll_interval receive_timeout =
  let framing =
    if binary then Jim_server.Wire.Binary else Jim_server.Wire.Line
  in
  match
    match resolve_address socket tcp with
    | Error e -> Error e
    | Ok address ->
      if error_rate < 0. || error_rate > 1. then
        Error "--error-rate must be within [0, 1]"
      else Ok address
  with
  | Error e ->
    Printf.eprintf "jim labeler: %s\n" e;
    2
  | Ok address -> (
    let inst =
      W.Synthetic.generate (Jim_server.Smoke.synthetic_params instance)
    in
    let oracle =
      Oracle.noisy ~seed:labeler_seed ~flip_probability:error_rate
        (Oracle.of_goal inst.W.Synthetic.goal)
    in
    match
      Jim_server.Smoke.run_labeler ~framing ~receive_timeout ~poll_interval
        ~address ~session ~oracle ()
    with
    | Ok (cast, counted) ->
      Printf.printf "jim labeler: session %d done — %d ballots cast, %d counted\n"
        session cast counted;
      0
    | Error { msg; _ } ->
      Printf.eprintf "jim labeler: %s\n" msg;
      1)

let run_client socket tcp batch smoke pipeline busy crash_start crash_resume
    state_file tolerate_drops binary instance catalog_smoke strategy_name seed
    receive_timeout crowd_start crowd_deadline expect_flips =
  let framing =
    if binary then Jim_server.Wire.Binary else Jim_server.Wire.Line
  in
  match resolve_address socket tcp with
  | Error e ->
    Printf.eprintf "jim client: %s\n" e;
    2
  | Ok address -> (
    match crowd_start with
    | Some cseed ->
      run_client_crowd ~address ~framing ~seed:cseed ~strategy:strategy_name
        ~deadline:crowd_deadline ~receive_timeout ~expect_flips
    | None -> (
    match (catalog_smoke, instance) with
    | Some clients, _ -> (
      match
        Jim_server.Smoke.catalog_smoke ~clients ~framing ~receive_timeout
          ~address ()
      with
      | Error e ->
        Printf.eprintf "jim client: catalog smoke: %s\n" e;
        1
      | Ok (reports, stats) ->
        let rc =
          print_reports ~expected:clients ~tolerate_drops
            "bit-identical through the shared catalog entry" reports
        in
        print_endline (Jim_catalog.Catalog.stats_to_string stats);
        if stats.Jim_api.Protocol.hits <= 0 then begin
          Printf.eprintf
            "jim client: catalog smoke: sessions never hit the catalog\n";
          1
        end
        else rc)
    | None, Some fp ->
      run_client_instance ~address ~framing ~fp ~strategy:strategy_name ~seed
    | None, None -> (
    match (smoke, busy, crash_start, crash_resume) with
    | Some clients, _, _, _ when pipeline > 1 ->
      (* [clients] total sessions, [pipeline] interleaved per
         connection: the pipelined smoke keeps every connection
         [pipeline] requests deep while holding each session to the
         usual bit-identity bar. *)
      let conns = max 1 (clients / pipeline) in
      print_reports
        ~expected:(conns * pipeline)
        ~tolerate_drops "bit-identical to the local run (pipelined)"
        (Jim_server.Smoke.run_pipelined ~clients:conns ~pipeline ~framing
           ~receive_timeout ~seed_offset:seed ~address ())
    | Some clients, _, _, _ ->
      print_reports ~expected:clients ~tolerate_drops
        "bit-identical to the local run"
        (Jim_server.Smoke.run ~clients ~framing ~receive_timeout
           ~seed_offset:seed ~address ())
    | None, _, Some clients, _ ->
      print_reports ~expected:clients ~tolerate_drops
        "left half-answered for the crash drill"
        (Jim_server.Smoke.crash_start ~framing ~address ~state_file ~clients
           ~receive_timeout ())
    | None, _, None, true -> (
      match
        Jim_server.Smoke.crash_resume ~framing ~address ~state_file
          ~receive_timeout ()
      with
      | Error e ->
        Printf.eprintf "jim client: crash resume: %s\n" e;
        1
      | Ok reports ->
        print_reports ~tolerate_drops
          "resumed bit-identical to an uninterrupted run" reports)
    | None, Some fill, None, false -> (
      match
        Jim_server.Smoke.busy_check ~framing ~receive_timeout ~address ~fill ()
      with
      | Ok () ->
        Printf.printf
          "busy-check ok: session %d refused with Server_busy\n" (fill + 1);
        0
      | Error e ->
        Printf.eprintf "busy-check FAILED: %s\n" e;
        1)
    | None, None, None, false -> (
      (* batch mode: raw request lines in, raw response lines out *)
      let ic =
        match batch with
        | None | Some "-" -> stdin
        | Some path -> open_in path
      in
      match Jim_server.Wire.connect ~retries:50 ~framing address with
      | Error e ->
        Printf.eprintf "jim client: connect: %s\n" e;
        1
      | Ok conn ->
        let rc = ref 0 in
        (try
           while true do
             let line = String.trim (input_line ic) in
             if line <> "" then
               match Jim_server.Wire.call_line conn line with
               | Ok reply -> print_endline reply
               | Error e ->
                 Printf.eprintf "jim client: %s\n" e;
                 rc := 1;
                 raise Exit
           done
         with End_of_file | Exit -> ());
        Jim_server.Wire.close conn;
        if ic != stdin then close_in ic;
        !rc))))

(* ------------------------------------------------------------------ *)
(* instance: the catalog surface of a running server                   *)

let with_server_call ~what socket tcp binary req k =
  let framing =
    if binary then Jim_server.Wire.Binary else Jim_server.Wire.Line
  in
  match resolve_address socket tcp with
  | Error e ->
    Printf.eprintf "jim instance %s: %s\n" what e;
    2
  | Ok address -> (
    match Jim_server.Wire.connect ~retries:50 ~framing address with
    | Error e ->
      Printf.eprintf "jim instance %s: connect: %s\n" what e;
      1
    | Ok conn ->
      let reply = Jim_server.Wire.call conn req in
      Jim_server.Wire.close conn;
      (match reply with
      | Error e ->
        Printf.eprintf "jim instance %s: %s\n" what e;
        1
      | Ok (Jim_api.Protocol.Failed err) ->
        Printf.eprintf "jim instance %s: %s\n" what
          (Jim_api.Protocol.error_to_string err);
        1
      | Ok reply -> k reply))

let run_instance_register socket tcp binary path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  with_server_call ~what:"register" socket tcp binary
    (Jim_api.Protocol.Register_instance
       { source = Jim_api.Protocol.Csv_inline text })
    (function
      | Jim_api.Protocol.Registered { fingerprint; arity; classes; tuples } ->
        Printf.printf "%s\n" fingerprint;
        Printf.printf
          "registered %s: arity %d, %d classes, %d tuples\n\
           start sessions with:  jim client --instance %s\n"
          path arity classes tuples fingerprint;
        0
      | other ->
        Printf.eprintf "jim instance register: unexpected reply: %s\n"
          (Jim_api.Protocol.response_to_string other);
        1)

let run_instance_stats socket tcp binary =
  with_server_call ~what:"stats" socket tcp binary Jim_api.Protocol.Catalog_stats
    (function
      | Jim_api.Protocol.Catalog_info stats ->
        print_endline (Jim_catalog.Catalog.stats_to_string stats);
        0
      | other ->
        Printf.eprintf "jim instance stats: unexpected reply: %s\n"
          (Jim_api.Protocol.response_to_string other);
        1)

(* ------------------------------------------------------------------ *)
(* chaos: the wire fault-injection proxy                               *)

let run_chaos socket tcp upstream plan =
  match
    let* listen = resolve_address socket tcp in
    let* upstream = Jim_server.Wire.address_of_string upstream in
    let* plan = Jim_server.Chaos.plan_of_string plan in
    Ok (listen, upstream, plan)
  with
  | Error e ->
    Printf.eprintf "jim chaos: %s\n" e;
    2
  | Ok (listen, upstream, plan) -> (
    let log line = Printf.eprintf "jim chaos: %s\n%!" line in
    match Jim_server.Chaos.start ~log ~plan ~listen ~upstream () with
    | Error e ->
      Printf.eprintf "jim chaos: %s\n" e;
      1
    | Ok proxy ->
      Printf.printf "jim chaos: %s -> %s, plan %s\n%!"
        (Jim_server.Wire.address_to_string (Jim_server.Chaos.bound proxy))
        (Jim_server.Wire.address_to_string upstream)
        (Jim_server.Chaos.plan_to_string plan);
      (* The handler may run on any thread, the acceptor's included:
         it only starts the shutdown, and this thread finishes it. *)
      let shutdown = Sys.Signal_handle (fun _ -> Jim_server.Chaos.shutdown proxy) in
      (try
         ignore (Sys.signal Sys.sigint shutdown);
         ignore (Sys.signal Sys.sigterm shutdown)
       with Invalid_argument _ -> ());
      Jim_server.Chaos.wait proxy;
      let st = Jim_server.Chaos.stop proxy in
      Printf.printf
        "jim chaos: %d connections, %d dropped, %d trickled, %d partial, %d \
         stalled\n%!"
        st.Jim_server.Chaos.connections st.Jim_server.Chaos.dropped
        st.Jim_server.Chaos.trickled st.Jim_server.Chaos.chopped
        st.Jim_server.Chaos.stalled;
      0)

(* ------------------------------------------------------------------ *)
(* journal: offline inspection of a data directory                     *)

let run_journal_inspect dir =
  match Jim_store.Recovery.load dir with
  | Error e ->
    Printf.eprintf "jim journal inspect: %s\n" e;
    1
  | Ok r ->
    Printf.printf "data directory   %s\n" dir;
    Printf.printf "generation       %d\n" r.Jim_store.Recovery.generation;
    Printf.printf "next session id  %d\n" r.Jim_store.Recovery.next_id;
    Printf.printf "journal          %s (%d records%s)\n"
      r.Jim_store.Recovery.journal_path r.Jim_store.Recovery.journal_records
      (match r.Jim_store.Recovery.torn with
      | None -> ""
      | Some (offset, bytes) ->
        Printf.sprintf ", torn tail: %d bytes at offset %d" bytes offset);
    Printf.printf "live sessions    %d\n"
      (List.length r.Jim_store.Recovery.sessions);
    List.iter
      (fun (s : Jim_store.Recovery.session) ->
        let labels, undos =
          List.fold_left
            (fun (l, u) step ->
              match step with
              | Jim_store.Recovery.Label _ -> (l + 1, u)
              | Jim_store.Recovery.Undo -> (l, u + 1))
            (0, 0) s.Jim_store.Recovery.steps
        in
        Printf.printf
          "  session %-4d %-20s seed %-6d fingerprint %s  %d labels, %d undos\n"
          s.Jim_store.Recovery.id s.Jim_store.Recovery.strategy
          s.Jim_store.Recovery.seed s.Jim_store.Recovery.fingerprint labels
          undos)
      r.Jim_store.Recovery.sessions;
    0

let run_journal_verify dir =
  match Jim_store.Recovery.load dir with
  | Error e ->
    Printf.eprintf "jim journal verify: %s\n" e;
    1
  | Ok r ->
    (match r.Jim_store.Recovery.torn with
    | None ->
      Printf.printf
        "ok: generation %d, %d journal records, %d live sessions, clean tail\n"
        r.Jim_store.Recovery.generation r.Jim_store.Recovery.journal_records
        (List.length r.Jim_store.Recovery.sessions)
    | Some (offset, bytes) ->
      Printf.printf
        "ok: generation %d, %d journal records, %d live sessions\n\
         torn tail: %d unacknowledged bytes at offset %d (cut on next open)\n"
        r.Jim_store.Recovery.generation r.Jim_store.Recovery.journal_records
        (List.length r.Jim_store.Recovery.sessions)
        bytes offset);
    0

let run_journal_export dir session out =
  match Jim_store.Recovery.load dir with
  | Error e ->
    Printf.eprintf "jim journal export-transcript: %s\n" e;
    1
  | Ok r -> (
    match
      List.find_opt
        (fun (s : Jim_store.Recovery.session) ->
          s.Jim_store.Recovery.id = session)
        r.Jim_store.Recovery.sessions
    with
    | None ->
      Printf.eprintf
        "jim journal export-transcript: no live session %d (inspect lists them)\n"
        session;
      1
    | Some s ->
      let text =
        Transcript.to_string
          (Jim_store.Recovery.snapshot_session s).Jim_store.Snapshot.transcript
      in
      (match out with
      | None -> print_string text
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc text);
        Printf.printf "Transcript for session %d written to %s\n" session path);
      0)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

open Cmdliner

let interactive_flag =
  Arg.(
    value & flag
    & info [ "i"; "interactive" ] ~doc:"Ask a human instead of simulating.")

let demo_cmd =
  let walkthrough =
    Arg.(
      value & flag
      & info [ "w"; "walkthrough" ]
          ~doc:"Screen-by-screen replay of the paper's Section 2 narrative.")
  in
  let term =
    Term.(const run_demo $ interactive_flag $ walkthrough $ strategy_arg)
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"The guided demonstration on the paper's instance.")
    term

let infer_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"CSV" ~doc:"Instance to label (CSV with header).")
  in
  let transcript =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "transcript" ] ~docv:"FILE"
          ~doc:"Write the session transcript here (audit / resume).")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:"Replay a previous transcript before asking questions.")
  in
  let term =
    Term.(const run_infer $ path $ strategy_arg $ transcript $ replay)
  in
  Cmd.v
    (Cmd.info "infer" ~doc:"Interactive join inference over a CSV instance.")
    term

let compare_cmd =
  let n_attrs =
    Arg.(value & opt int 6 & info [ "n"; "attrs" ] ~doc:"Attribute count.")
  in
  let rank =
    Arg.(value & opt int 2 & info [ "r"; "rank" ] ~doc:"Goal equality atoms.")
  in
  let tuples =
    Arg.(value & opt int 80 & info [ "t"; "tuples" ] ~doc:"Instance size.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed.") in
  let term =
    Term.(const run_compare $ n_attrs $ rank $ tuples $ seed)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all strategies on a synthetic instance.")
    term

let setcards_cmd =
  let sample =
    Arg.(value & opt int 400 & info [ "sample" ] ~doc:"Pairs on screen.")
  in
  let term =
    Term.(const run_setcards $ interactive_flag $ strategy_arg $ sample)
  in
  Cmd.v
    (Cmd.info "setcards" ~doc:"Joining sets of pictures (Set cards, Fig. 5).")
    term

let tpch_cmd =
  let term =
    Term.(const run_tpch $ strategy_arg)
  in
  Cmd.v
    (Cmd.info "tpch" ~doc:"Foreign-key join tasks over TPC-H-lite.")
    term

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (default /tmp/jim.sock).")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Listen on / connect to TCP instead of a Unix socket.")

(* --drain-timeout, shared by every serving subcommand. *)
let wire_arg =
  let drain_timeout =
    Arg.(
      value
      & opt float Jim_server.Wire.default_config.drain_timeout
      & info [ "drain-timeout" ] ~docv:"SECONDS"
          ~doc:"How long shutdown lingers for in-flight replies to flush \
                before closing connections.")
  in
  Term.(
    const (fun drain_timeout -> { Jim_server.Wire.drain_timeout })
    $ drain_timeout)

(* The service flags, shared by [serve] and [standby]: a standby builds
   its service from them when it is promoted. *)
let service_settings_arg =
  let defaults = Node.default_settings in
  let max_sessions =
    Arg.(
      value & opt int defaults.max_sessions
      & info [ "max-sessions" ]
          ~doc:"Concurrent session cap; beyond it Start_session gets a \
                typed Server_busy reply.")
  in
  let idle_ttl =
    Arg.(
      value & opt float defaults.idle_ttl
      & info [ "idle-ttl" ] ~docv:"SECONDS"
          ~doc:"Evict sessions idle longer than this.")
  in
  let catalog_max_entries =
    Arg.(
      value & opt int defaults.catalog_max_entries
      & info [ "catalog-max-entries" ] ~docv:"N"
          ~doc:"Instance catalog capacity: beyond $(docv) entries the \
                least-recently-used entry with no live sessions is \
                evicted (entries pinned by live sessions never are).")
  in
  let votes =
    Arg.(
      value & opt int 0
      & info [ "votes" ] ~docv:"K"
          ~doc:"Enable crowd labeling: fan each session's pending question \
                out to its attached labelers ($(b,jim labeler)) and absorb \
                the majority of $(docv) votes as the session's answer — \
                only the aggregate is journaled.  $(docv) must be odd; 0 \
                (the default) disables crowd labeling and direct answers \
                work as usual.")
  in
  let vote_timeout =
    Arg.(
      value & opt float 30.
      & info [ "vote-timeout" ] ~docv:"SECONDS"
          ~doc:"Straggler deadline per voting round (with $(b,--votes)): \
                past it a decisively unbalanced round closes short and a \
                tied one is re-asked.")
  in
  let vote_weighted =
    Arg.(
      value & flag
      & info [ "vote-weighted" ]
          ~doc:"Weight each ballot by the labeler's running accuracy \
                estimate (Laplace-smoothed agreement with past \
                aggregates) instead of counting ballots equally.")
  in
  let settings max_sessions idle_ttl catalog_max_entries votes timeout
      weighted =
    if votes < 0 || (votes > 0 && votes mod 2 = 0) then
      Error "--votes must be odd and positive (0 disables crowd labeling)"
    else if votes > 0 && timeout <= 0. then
      Error "--vote-timeout must be positive"
    else
      let crowd = { Jim_server.Coordinator.votes; timeout; weighted } in
      Ok
        {
          Node.max_sessions;
          idle_ttl;
          catalog_max_entries;
          crowd = (if votes = 0 then None else Some crowd);
        }
  in
  Term.(
    const settings $ max_sessions $ idle_ttl $ catalog_max_entries $ votes
    $ vote_timeout $ vote_weighted)

let serve_cmd =
  let replicate_to =
    Arg.(
      value
      & opt (some string) None
      & info [ "replicate-to" ] ~docv:"ADDR"
          ~doc:"Stream every journal record to a $(b,jim standby) at \
                $(docv) (HOST:PORT or unix:PATH) before acknowledging; \
                needs $(b,--data-dir).  The standby is sent the current \
                snapshot and journal on attach, so it can start empty.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:"Make sessions durable: journal every acknowledged answer to \
                $(docv) before replying, and recover all live sessions from \
                it on startup.  Omit for the default in-memory mode.")
  in
  let snapshot_every =
    Arg.(
      value & opt int 1024
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:"Journal records between snapshot compactions (with \
                $(b,--data-dir)).")
  in
  let stats_every =
    Arg.(
      value
      & opt (some float) None
      & info [ "stats-every" ] ~docv:"SECONDS"
          ~doc:"Print wire-layer counters (connections accepted / active / \
                failed, malformed requests, coalesced writes and flushes, \
                bytes in/out), catalog counters (entries, hits/misses, \
                evictions) and — with $(b,--data-dir) — journal batch \
                counters every $(docv) seconds.")
  in
  let term =
    Term.(
      const run_serve
      $ socket_arg $ tcp_arg $ service_settings_arg $ wire_arg
      $ data_dir $ snapshot_every $ stats_every $ replicate_to)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve inference sessions: JSON requests over line or \
             negotiated binary framing.")
    term

let standby_cmd =
  let data_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:"Accumulate the replicated snapshot and journal here; \
                promotion recovers this directory into a serving node.")
  in
  let snapshot_every =
    Arg.(
      value & opt int 1024
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:"Snapshot cadence of the store opened at promotion.")
  in
  let term =
    Term.(
      const run_standby $ socket_arg $ tcp_arg $ service_settings_arg
      $ wire_arg $ data_dir $ snapshot_every)
  in
  Cmd.v
    (Cmd.info "standby"
       ~doc:"Warm standby for a replicating $(b,jim serve): receives the \
             journal stream, maintains shadow state, and starts serving \
             the same sessions when told to promote (by a failing-over \
             $(b,jim router), or a $(b,promote) request).")
    term

let router_cmd =
  let shard =
    Arg.(
      non_empty
      & opt_all string []
      & info [ "shard" ] ~docv:"NAME=ADDR"
          ~doc:"A shard to route to (repeatable).  $(i,NAME) keys the \
                consistent-hash ring — keep it stable across restarts.")
  in
  let standby =
    Arg.(
      value
      & opt_all string []
      & info [ "standby" ] ~docv:"NAME=ADDR"
          ~doc:"A warm standby for shard $(i,NAME) (repeatable).  On \
                shard failure the router sends it $(b,promote) and fails \
                the shard's sessions over.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:"Journal ring membership and session placements to \
                $(docv)/router.wal so routing survives a router restart.")
  in
  let vnodes =
    Arg.(
      value & opt int 64
      & info [ "vnodes" ] ~docv:"N"
          ~doc:"Virtual nodes per shard on the hash ring.")
  in
  let term =
    Term.(
      const run_router $ socket_arg $ tcp_arg $ wire_arg $ shard $ standby
      $ data_dir $ vnodes)
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:"Consistent-hash front over several $(b,jim serve) shards: \
             speaks the same protocol on both framings, pins each \
             session (and each catalog fingerprint) to one shard, and \
             promotes a standby when a shard dies.")
    term

let client_cmd =
  let batch =
    Arg.(
      value
      & opt (some string) None
      & info [ "batch" ] ~docv:"FILE"
          ~doc:"Send raw request lines from $(docv) (\"-\" = stdin, the \
                default) and print the response lines.")
  in
  let smoke =
    Arg.(
      value
      & opt (some int) None
      & info [ "smoke" ] ~docv:"N"
          ~doc:"Run $(docv) concurrent oracle-driven sessions and check \
                each outcome bit-identical to the in-process engine.")
  in
  let pipeline =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"K"
          ~doc:"With $(b,--smoke): multiplex $(docv) interleaved sessions \
                per connection, keeping up to $(docv) requests in flight \
                on each (one per session, so per-session ordering is \
                preserved).  1 (the default) keeps the classic \
                one-connection-per-session smoke.")
  in
  let busy =
    Arg.(
      value
      & opt (some int) None
      & info [ "busy-check" ] ~docv:"N"
          ~doc:"Fill the server with $(docv) sessions and check the next \
                one is refused with Server_busy.")
  in
  let crash_start =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-start" ] ~docv:"N"
          ~doc:"Crash drill, phase one: leave $(docv) sessions half-answered \
                and record what was acknowledged in $(b,--state); then kill \
                the server with SIGKILL and restart it.")
  in
  let crash_resume =
    Arg.(
      value & flag
      & info [ "crash-resume" ]
          ~doc:"Crash drill, phase two: resume the sessions recorded in \
                $(b,--state) against the restarted server and check every \
                outcome bit-identical to an uninterrupted run.")
  in
  let state =
    Arg.(
      value
      & opt string "/tmp/jim-crash-state.txt"
      & info [ "state" ] ~docv:"FILE"
          ~doc:"Where the crash drill records acknowledged progress.")
  in
  let tolerate_drops =
    Arg.(
      value & flag
      & info [ "tolerate-drops" ]
          ~doc:"Don't fail on transport-level losses (connection refused, \
                clean EOF) — for runs through a chaos proxy, where drops \
                are the injected fault.  Divergent outcomes still fail.")
  in
  let binary =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:"Negotiate length-prefixed binary framing after connecting \
                (every mode).  Fails cleanly against a server that only \
                speaks the line protocol.")
  in
  let instance =
    Arg.(
      value
      & opt (some string) None
      & info [ "instance" ] ~docv:"FINGERPRINT"
          ~doc:"Start an interactive session on the already-cataloged \
                instance with this fingerprint (see $(b,jim instance \
                register)) — no instance data crosses the wire.")
  in
  let catalog_smoke =
    Arg.(
      value
      & opt (some int) None
      & info [ "catalog-smoke" ] ~docv:"N"
          ~doc:"Register one synthetic instance, run $(docv) concurrent \
                sessions against it by fingerprint, check each outcome \
                bit-identical to the in-process engine and that the \
                server's catalog counters show shared hits.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Session seed for $(b,--instance) mode.  With \
                $(b,--smoke), shifts every smoke session's seed by \
                $(docv) (0 keeps the default seeds).")
  in
  let receive_timeout =
    Arg.(
      value & opt float 30.
      & info [ "receive-timeout" ] ~docv:"SECONDS"
          ~doc:"Give up on any single reply after $(docv) seconds (all \
                drill modes).  A stalled server or proxy then counts as a \
                transport drop, never a divergence and never a hang.")
  in
  let crowd_start =
    Arg.(
      value
      & opt (some int) None
      & info [ "crowd-start" ] ~docv:"SEED"
          ~doc:"Crowd drill controller: start one session on the smoke \
                workload's synthetic instance seeded $(docv) against a \
                $(b,jim serve --votes) server, print its session id for \
                the $(b,jim labeler) processes, wait for convergence and \
                check the inferred predicate equals the noiseless \
                reference run's.")
  in
  let crowd_deadline =
    Arg.(
      value & opt float 120.
      & info [ "crowd-deadline" ] ~docv:"SECONDS"
          ~doc:"With $(b,--crowd-start): fail if the crowd has not \
                converged within $(docv) seconds.")
  in
  let expect_flips =
    Arg.(
      value & flag
      & info [ "expect-flips" ]
          ~doc:"With $(b,--crowd-start): additionally require at least one \
                majority flip (an overruled dissenting ballot) — the \
                noisy-labeler drill must actually have exercised \
                aggregation.")
  in
  let term =
    Term.(
      const (fun s t b sm pl bu cs cr st td bin inst csm strat seed rt cst cd ef ->
          run_client s t b sm pl bu cs cr st td bin inst csm strat seed rt cst
            cd ef)
      $ socket_arg $ tcp_arg $ batch $ smoke $ pipeline $ busy $ crash_start
      $ crash_resume $ state $ tolerate_drops $ binary $ instance
      $ catalog_smoke $ strategy_arg $ seed $ receive_timeout $ crowd_start
      $ crowd_deadline $ expect_flips)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a running jim server: batch, smoke, busy-check, \
             crash-drill or crowd-drill mode.")
    term

let labeler_cmd =
  let binary =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:"Negotiate length-prefixed binary framing after connecting.")
  in
  let session =
    Arg.(
      required
      & opt (some int) None
      & info [ "session" ] ~docv:"ID"
          ~doc:"The crowd session to label (printed by $(b,jim client \
                --crowd-start)).")
  in
  let instance =
    Arg.(
      required
      & opt (some int) None
      & info [ "instance" ] ~docv:"SEED"
          ~doc:"Seed of the smoke workload's synthetic instance the \
                session runs on — the labeler regenerates it locally to \
                obtain the goal oracle it answers from.")
  in
  let error_rate =
    Arg.(
      value & opt float 0.
      & info [ "error-rate" ] ~docv:"P"
          ~doc:"Flip each answer independently with probability $(docv) \
                (deterministically, from $(b,--labeler-seed)) — the \
                noisy-worker simulation.")
  in
  let labeler_seed =
    Arg.(
      value & opt int 0
      & info [ "labeler-seed" ] ~docv:"SEED"
          ~doc:"Seeds this labeler's noise stream.")
  in
  let poll_interval =
    Arg.(
      value & opt float 0.02
      & info [ "poll-interval" ] ~docv:"SECONDS"
          ~doc:"Delay between polls of a round this labeler has already \
                voted in.")
  in
  let receive_timeout =
    Arg.(
      value & opt float 30.
      & info [ "receive-timeout" ] ~docv:"SECONDS"
          ~doc:"Give up on any single reply after $(docv) seconds.")
  in
  let term =
    Term.(
      const (fun s t b se inst er ls pi rt ->
          run_labeler s t b se inst er ls pi rt)
      $ socket_arg $ tcp_arg $ binary $ session $ instance $ error_rate
      $ labeler_seed $ poll_interval $ receive_timeout)
  in
  Cmd.v
    (Cmd.info "labeler"
       ~doc:"A crowd labeler: attach to a session on a $(b,jim serve \
             --votes) server, poll for each voting round and cast a \
             (possibly noise-flipped) ballot until the session converges.")
    term

let chaos_cmd =
  let upstream =
    Arg.(
      required
      & opt (some string) None
      & info [ "upstream" ] ~docv:"ADDR"
          ~doc:"The real server to forward to: HOST:PORT or unix:PATH.")
  in
  let plan =
    Arg.(
      value & opt string "none"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:"Comma-separated faults by connection index: $(b,drop=N) \
                (cut every Nth connection at a line boundary after \
                $(b,drop-lines=K) replies), $(b,trickle=N) (byte-at-a-time \
                replies), $(b,partial=N) (replies in ragged flushed \
                chunks), $(b,stall=N) (delay replies so other sessions \
                overtake), $(b,delay-ms=M) (pacing).")
  in
  let term =
    Term.(
      const (fun s t u p -> run_chaos s t u p)
      $ socket_arg $ tcp_arg $ upstream $ plan)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Fault-injecting proxy between jim clients and a jim server: \
             deterministic connection drops, partial lines, slow-loris \
             trickle and stalled streams.  SIGINT prints stats and exits.")
    term

let instance_cmd =
  let binary =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:"Negotiate length-prefixed binary framing after connecting.")
  in
  let register =
    let path =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"CSV"
            ~doc:"Instance to upload (CSV with header).")
    in
    Cmd.v
      (Cmd.info "register"
         ~doc:"Upload a CSV instance into the server's catalog once and \
               print its fingerprint handle; sessions then start by \
               fingerprint ($(b,jim client --instance)) without re-sending \
               or re-deriving the instance.")
      Term.(
        const (fun s t b p -> run_instance_register s t b p)
        $ socket_arg $ tcp_arg $ binary $ path)
  in
  let stats =
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Print the server's catalog counters: entries, bytes, pinned \
               sessions, hits/misses, evictions, fingerprints, derivations.")
      Term.(
        const (fun s t b -> run_instance_stats s t b)
        $ socket_arg $ tcp_arg $ binary)
  in
  Cmd.group
    (Cmd.info "instance"
       ~doc:"The catalog surface of a running jim server: register \
             instances once, inspect the shared-entry counters.")
    [ register; stats ]

let journal_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"The server's $(b,--data-dir).")
  in
  let inspect =
    Cmd.v
      (Cmd.info "inspect"
         ~doc:"Recover DIR read-only and print generation, live sessions and \
               journal status.")
      Term.(const run_journal_inspect $ dir)
  in
  let verify =
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Check every record's framing and CRC plus event consistency; \
               exits non-zero naming the byte offset on mid-log corruption. \
               A torn final record is reported and benign.")
      Term.(const run_journal_verify $ dir)
  in
  let export =
    let session =
      Arg.(
        required
        & pos 1 (some int) None
        & info [] ~docv:"SESSION" ~doc:"Live session id (see inspect).")
    in
    let out =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE"
            ~doc:"Write here instead of stdout.")
    in
    Cmd.v
      (Cmd.info "export-transcript"
         ~doc:"Print a live session's surviving labels in the \
               $(b,jim infer --resume) transcript format.")
      Term.(const run_journal_export $ dir $ session $ out)
  in
  Cmd.group
    (Cmd.info "journal"
       ~doc:"Inspect, verify or export from a durable data directory.")
    [ inspect; verify; export ]

let () =
  let doc = "JIM: interactive join query inference (VLDB 2014)" in
  let info = Cmd.info "jim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            demo_cmd;
            infer_cmd;
            compare_cmd;
            setcards_cmd;
            tpch_cmd;
            serve_cmd;
            standby_cmd;
            router_cmd;
            client_cmd;
            labeler_cmd;
            instance_cmd;
            chaos_cmd;
            journal_cmd;
          ]))
