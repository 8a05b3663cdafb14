(* The one node assembler: store → replication → service → restore →
   listener, and the one handler chain every role answers through. *)

module Wire = Jim_server.Wire
module Service = Jim_server.Service
module Netstats = Jim_server.Netstats
module Catalog = Jim_catalog.Catalog
module P = Jim_api.Protocol
module Journal = Jim_store.Journal
module Store = Jim_store.Store

type settings = {
  max_sessions : int;
  idle_ttl : float;
  catalog_max_entries : int;
  crowd : Jim_server.Coordinator.config option;
}

let default_settings =
  { max_sessions = 64; idle_ttl = 600.; catalog_max_entries = 64; crowd = None }

type role =
  | Primary of { data_dir : string option; replicate_to : Repl.target option }
  | Standby of { data_dir : string }
  | Router of {
      data_dir : string option;
      vnodes : int;
      shards : Router.upstream list;
    }

type config = {
  role : role;
  listen : Wire.address;
  wire : Wire.config;
  settings : settings;
  snapshot_every : int;
  fsync : bool;
  io : Jim_store.Io.t;
  catalog : Catalog.t option;
}

let config role =
  {
    role;
    listen = Wire.default_address;
    wire = Wire.default_config;
    settings = default_settings;
    snapshot_every = 1024;
    fsync = true;
    io = Jim_store.Io.real;
    catalog = None;
  }

(* A primary's write path.  The persist hook stages each event — a
   journal record assembled in memory plus a shadow fold — and
   remembers it with its generation; [barrier] writes and fsyncs
   everything staged at once, then ships it to the standby as one batch
   and waits for the ack.  The wire runs one barrier per event-loop turn, before any
   reply of the turn is written; [handle] runs one per request. *)
type durable = {
  store : Store.t;
  repl : Repl.t option;
  mutable staged : (int * Jim_store.Event.t) list;  (* newest first *)
}

let stage d ev =
  Store.stage d.store ev;
  d.staged <- (Store.generation d.store, ev) :: d.staged

let barrier d =
  match d.staged with
  | [] -> ()
  | staged ->
    d.staged <- [];
    Store.sync d.store;
    Option.iter (fun r -> Repl.ship r (List.rev staged)) d.repl

(* A standby before and after [Promote]: once promoted, [promoted]
   holds the serving service (built over [catalog]), its write path and
   the (idempotent) reply. *)
type warm = {
  stb : Standby.t;
  catalog : Catalog.t;
  mutable promoted : (Service.t * durable * P.response) option;
}

type kind =
  | Serving of {
      service : Service.t;
      durable : durable option;
      restored : int;
    }
  | Warm of warm
  | Routing of Router.t

(* A node is owned by one thread at a time: the building thread until
   [Wire.serve_turns] starts the loop, the loop while it serves, and
   [stop] once [Wire.shutdown] has joined it.  Requests and sweeps run
   one at a time, so a barrier covers exactly its turn.  [banner] and
   [stats_line] may run on other threads; they read only [facts] and
   [kind]'s immutable fields, fixed at create, and modules that keep
   their own locks. *)
type t = {
  cfg : config;
  kind : kind;
  facts : string * string list;
      (* the banner after "listening on ADDRESS", then its other lines *)
  mutable server : Wire.server option;
  mutable closers : (unit -> unit) list;  (* most recently opened first *)
}

let ( let* ) = Result.bind

let node_catalog (cfg : config) =
  match cfg.catalog with
  | Some c -> c
  | None -> Catalog.create ~max_entries:cfg.settings.catalog_max_entries ()

(* The one place a service is built: a primary at start and a standby
   at promotion read the same settings. *)
let make_service cfg ~catalog ~persist =
  let s = cfg.settings in
  Service.create ~max_sessions:s.max_sessions ~idle_ttl:s.idle_ttl ~catalog
    ?persist ?crowd:s.crowd ()

(* Open the store, attach replication (the standby gets the snapshot +
   journal baseline before any traffic; every event is then staged by
   the persist hook, and the barrier syncs locally, streams, and only
   then are replies written), build the service and restore the
   recovered sessions.  [closers] collects what
   is open, so an error closes exactly that.  [Repl.close] is the
   target's own [close], registered once up front. *)
let create_primary cfg closers ~data_dir ~replicate_to =
  let opened close = closers := close :: !closers in
  Option.iter (fun (target : Repl.target) -> opened target.close) replicate_to;
  let* store =
    match data_dir with
    | None when replicate_to <> None ->
      Error "replication needs a data dir (nothing durable to ship)"
    | None -> Ok None
    | Some dir ->
      let* st, recovered =
        Store.open_dir ~fsync:cfg.fsync ~snapshot_every:cfg.snapshot_every
          ~io:cfg.io dir
      in
      opened (fun () -> Store.close st);
      Ok (Some (st, recovered))
  in
  let* repl =
    match (store, replicate_to) with
    | Some (st, _), Some target ->
      Result.map Option.some
        (Result.map_error
           (( ^ ) "replication attach failed: ")
           (Repl.attach st target))
    | _ -> Ok None
  in
  let durable =
    Option.map (fun (st, _) -> { store = st; repl; staged = [] }) store
  in
  let service =
    make_service cfg ~catalog:(node_catalog cfg)
      ~persist:(Option.map stage durable)
  in
  let* restored =
    match store with
    | None -> Ok 0
    | Some (_, recovered) ->
      Result.map_error (( ^ ) "recovery failed: ")
        (Service.restore service recovered)
  in
  Ok (Serving { service; durable; restored })

(* What the banner reports, read while the building thread owns the
   node. *)
let facts cfg kind =
  let line_of f x = Option.to_list (Option.map f x) in
  match (kind, cfg.role) with
  | Serving { durable; restored; _ }, _ ->
    let store = Option.map (fun d -> d.store) durable in
    let repl = Option.bind durable (fun d -> d.repl) in
    ( Printf.sprintf " (max %d sessions)" cfg.settings.max_sessions,
      line_of
        (fun (c : Jim_server.Coordinator.config) ->
          Printf.sprintf "crowd labeling on — quorum %d, %gs straggler deadline%s"
            c.votes c.timeout
            (if c.weighted then ", accuracy-weighted" else ""))
        cfg.settings.crowd
      @ line_of
          (fun r ->
            let gen, records = Repl.position r in
            Printf.sprintf "replicating to %s (generation %d, %d records shipped)"
              (Repl.describe r) gen records)
          repl
      @ line_of
          (fun st ->
            Printf.sprintf "durable in %s (generation %d, %d sessions recovered)"
              (Store.dir st) (Store.generation st) restored)
          store )
  | Warm w, _ ->
    ( Printf.sprintf ", accumulating in %s (serves after Promote)"
        (Standby.dir w.stb),
      [] )
  | Routing r, Router { shards; data_dir; _ } ->
    ( Printf.sprintf ", %d shards (%d with standbys), %d live placements"
        (List.length shards)
        (List.length (List.filter (fun u -> u.Router.promote <> None) shards))
        (Router.session_count r),
      line_of (Printf.sprintf "placements durable in %s") data_dir )
  | Routing _, (Primary _ | Standby _) -> ("", [])

let make cfg kind closers =
  { cfg; kind; facts = facts cfg kind; server = None; closers }

let warm cfg stb = Warm { stb; catalog = node_catalog cfg; promoted = None }
let of_standby cfg stb = make cfg (warm cfg stb) []

let create cfg =
  match cfg.role with
  | Primary { data_dir; replicate_to } -> (
    let closers = ref [] in
    match create_primary cfg closers ~data_dir ~replicate_to with
    | Ok kind -> Ok (make cfg kind !closers)
    | Error e ->
      List.iter (fun close -> close ()) !closers;
      Error e)
  | Standby { data_dir } ->
    let stb = Standby.create ~io:cfg.io ~fsync:cfg.fsync ~dir:data_dir () in
    Ok (make cfg (warm cfg stb) [ (fun () -> Standby.close stb) ])
  | Router { data_dir; vnodes; shards } ->
    let* router = Router.create ~io:cfg.io ?dir:data_dir ~vnodes ~shards () in
    Ok (make cfg (Routing router) [ (fun () -> Router.close router) ])

let service t =
  match t.kind with
  | Serving s -> Some s.service
  | Warm w -> Option.map (fun (s, _, _) -> s) w.promoted
  | Routing _ -> None

let durable_of t =
  match t.kind with
  | Serving s -> s.durable
  | Warm w -> Option.map (fun (_, d, _) -> d) w.promoted
  | Routing _ -> None

(* ------------------------------------------------------------------ *)
(* The handler chain                                                   *)

(* Promotion recovers the accumulated directory into a serving store
   and builds the service from the node's settings.  Idempotent: a
   retrying router gets the same reply. *)
let promote t w =
  match w.promoted with
  | Some (_, _, reply) -> reply
  | None -> (
    let failed msg = P.Failed (P.Bad_request ("promote: " ^ msg)) in
    match Standby.promote ~snapshot_every:t.cfg.snapshot_every w.stb with
    | Error e -> failed e
    | Ok (store, recovered) -> (
      let d = { store; repl = None; staged = [] } in
      let service =
        make_service t.cfg ~catalog:w.catalog ~persist:(Some (stage d))
      in
      match Service.restore service recovered with
      | Error e ->
        Store.close store;
        failed ("restore: " ^ e)
      | Ok sessions ->
        let reply =
          P.Promoted { sessions; generation = Store.generation store }
        in
        w.promoted <- Some (service, d, reply);
        t.closers <- (fun () -> Store.close store) :: t.closers;
        reply))

let stream_reply = function
  | Ok (gen, records) -> P.Repl_ok { gen; records }
  | Error msg -> P.Failed (P.Bad_request msg)

let warm_handle t w req =
  let then_position = Result.map (fun () -> Standby.position w.stb) in
  match (w.promoted, req) with
  | Some (service, _, _), req when req <> P.Promote -> Service.handle service req
  | _, P.Promote -> promote t w
  | _, P.Repl_install { gen; snapshot } ->
    stream_reply (then_position (Standby.install w.stb ~gen ~snapshot))
  | _, P.Repl_rotate { gen } ->
    stream_reply (then_position (Standby.rotate w.stb ~gen))
  | _, P.Repl_batch { records } -> stream_reply (Standby.apply_batch w.stb records)
  | _, P.Repl_status -> stream_reply (Ok (Standby.position w.stb))
  | _ -> P.Failed (P.Shard_unavailable "standby: not serving (promote first)")

(* The chain without a barrier. *)
let dispatch t req =
  match (t.kind, req) with
  | Serving { durable = Some ({ repl = Some _; _ } as d); _ }, P.Repl_status ->
    (* The router's Ring_status probe: the standby has yet to ack what
       this turn staged, which the turn's barrier ships. *)
    let bytes =
      List.fold_left
        (fun n (_, ev) ->
          n + String.length (Journal.encode_record (Jim_store.Event.to_string ev)))
        0 d.staged
    in
    P.Repl_lag { records = List.length d.staged; bytes }
  | Serving s, _ -> Service.handle s.service req
  | Warm w, _ -> warm_handle t w req
  | Routing _, _ -> invalid_arg "Node.handle: a router serves payloads only"

let internal_error exn =
  P.Failed (P.Bad_request ("internal error: " ^ Printexc.to_string exn))

let dispatch_line t payload =
  match t.kind with
  | Warm w when String.starts_with ~prefix:Journal.record_magic payload ->
    (* a streamed journal record, as raw JREC bytes *)
    let reply = stream_reply (Standby.apply_batch w.stb [ payload ]) in
    (P.response_to_string reply, true)
  | _ -> (
    match P.request_of_string payload with
    | Error e -> (P.response_to_string (P.Failed e), false)
    | Ok req ->
      let resp = try dispatch t req with exn -> internal_error exn in
      (P.response_to_string resp, true))

let end_turn t = Option.iter barrier (durable_of t)

let handle t req =
  let resp = dispatch t req in
  end_turn t;
  resp

(* One event-loop turn: every payload in order, then one barrier over
   the turn's writes.  If the barrier fails, each reply whose request
   staged an event becomes the internal error a failed synchronous
   write gives; replies that wrote nothing stand.  A router relays the
   turn whole ({!Router.turn}). *)
let turn t payloads =
  match t.kind with
  | Routing r -> Router.turn r payloads
  | Serving _ | Warm _ -> (
    let staged () =
      Option.fold ~none:[] ~some:(fun d -> d.staged) (durable_of t)
    in
    let replies =
      Array.map
        (fun payload ->
          let before = staged () in
          let reply = dispatch_line t payload in
          (reply, staged () != before))
        payloads
    in
    match end_turn t with
    | () -> Array.map fst replies
    | exception exn ->
      let failed = P.response_to_string (internal_error exn) in
      Array.map
        (fun ((reply, parsed), wrote) ->
          ((if wrote then failed else reply), parsed))
        replies)

let handle_line t payload = (turn t [| payload |]).(0)

let sweep t =
  let evicted =
    match service t with Some svc -> Service.sweep svc | None -> 0
  in
  end_turn t;
  evicted

(* ------------------------------------------------------------------ *)
(* Listening and teardown                                              *)

let stop t =
  Option.iter Wire.shutdown t.server;
  t.server <- None;
  let closers = t.closers in
  t.closers <- [];
  List.iter (fun close -> close ()) closers

let start cfg =
  let* t = create cfg in
  (* the one place the sweep interval is derived, for every role that
     holds a service *)
  let sweep_every = Float.min (Float.max 0.5 (cfg.settings.idle_ttl /. 4.)) 30. in
  let sweep =
    match t.kind with Routing _ -> None | Serving _ | Warm _ -> Some (fun () -> sweep t)
  in
  match
    Wire.serve_turns ~config:cfg.wire ~sweep_every ?sweep (turn t) cfg.listen
  with
  | server ->
    t.server <- Some server;
    Ok t
  | exception exn ->
    stop t;
    let why =
      match exn with
      | Unix.Unix_error (e, fn, _) -> fn ^ ": " ^ Unix.error_message e
      | exn -> Printexc.to_string exn
    in
    Error
      (Printf.sprintf "cannot listen on %s: %s"
         (Wire.address_to_string cfg.listen) why)

let address t = Option.map Wire.bound_address t.server
let wait t = Option.iter Wire.wait t.server

(* ------------------------------------------------------------------ *)
(* What the node reports                                               *)

let banner t =
  let where =
    Option.fold ~none:"(in-process)" ~some:Wire.address_to_string (address t)
  in
  let first, rest = t.facts in
  ("listening on " ^ where ^ first) :: rest

let stats_line t =
  let counters c = "; " ^ Catalog.stats_to_string (Catalog.stats c) in
  let catalog =
    match t.kind with
    | Serving { service; _ } -> counters (Service.catalog service)
    | Warm w -> counters w.catalog
    | Routing _ -> ""
  in
  let commit =
    match t.kind with
    | Serving { durable = Some d; _ } ->
      let s = Store.commit_stats d.store in
      Printf.sprintf "; commit: %d batches / %d records (max %d)"
        s.Journal.batches s.Journal.records s.Journal.max_batch
    | _ -> ""
  in
  Printf.sprintf "wire: %s%s%s" (Netstats.to_string (Netstats.snapshot ()))
    catalog commit
