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
  commit_window : float;
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
    commit_window = 0.;
    fsync = true;
    io = Jim_store.Io.real;
    catalog = None;
  }

(* A standby before and after [Promote]: the stream operations run under
   [lock]; once promoted, [promoted] holds the serving service and the
   (idempotent) reply. *)
type warm = {
  stb : Standby.t;
  lock : Mutex.t;
  mutable promoted : (Service.t * P.response) option;
}

type kind =
  | Serving of {
      service : Service.t;
      store : Store.t option;
      repl : Repl.t option;
      restored : int;
    }
  | Warm of warm
  | Routing of Router.t

type t = {
  cfg : config;
  kind : kind;
  mutable server : Wire.server option;
  mutable closers : (unit -> unit) list;  (* most recently opened first *)
}

let ( let* ) = Result.bind

(* The one place a service is built: a primary at start and a standby
   at promotion read the same settings. *)
let make_service cfg ~persist =
  let s = cfg.settings in
  let catalog =
    match cfg.catalog with
    | Some c -> c
    | None -> Catalog.create ~max_entries:s.catalog_max_entries ()
  in
  Service.create ~max_sessions:s.max_sessions ~idle_ttl:s.idle_ttl ~catalog
    ?persist ?crowd:s.crowd ()

(* Open the store, attach replication (the standby gets the snapshot +
   journal baseline before any traffic; every event then rides the
   persist hook — journal locally, stream, only then ack), build the
   service and restore the recovered sessions.  [closers] collects what
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
        Store.open_dir ~fsync:cfg.fsync ~commit_window:cfg.commit_window
          ~snapshot_every:cfg.snapshot_every ~io:cfg.io dir
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
  let persist =
    Option.map
      (fun (st, _) ev ->
        Store.record st ev;
        Option.iter (fun r -> Repl.send r ev) repl)
      store
  in
  let service = make_service cfg ~persist in
  let* restored =
    match store with
    | None -> Ok 0
    | Some (_, recovered) ->
      Result.map_error (( ^ ) "recovery failed: ")
        (Service.restore service recovered)
  in
  Ok (Serving { service; store = Option.map fst store; repl; restored })

let make cfg kind closers = { cfg; kind; server = None; closers }

let warm stb = Warm { stb; lock = Mutex.create (); promoted = None }
let of_standby cfg stb = make cfg (warm stb) []

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
    Ok (make cfg (warm stb) [ (fun () -> Standby.close stb) ])
  | Router { data_dir; vnodes; shards } ->
    let* router = Router.create ~io:cfg.io ?dir:data_dir ~vnodes ~shards () in
    Ok (make cfg (Routing router) [ (fun () -> Router.close router) ])

let service t =
  match t.kind with
  | Serving s -> Some s.service
  | Warm w -> Mutex.protect w.lock (fun () -> Option.map fst w.promoted)
  | Routing _ -> None

(* ------------------------------------------------------------------ *)
(* The handler chain                                                   *)

(* Promotion recovers the accumulated directory into a serving store
   and builds the service from the node's settings.  Idempotent: a
   retrying router gets the same reply.  Called under [w.lock]. *)
let promote t w =
  match w.promoted with
  | Some (_, reply) -> reply
  | None -> (
    let failed msg = P.Failed (P.Bad_request ("promote: " ^ msg)) in
    match Standby.promote ~snapshot_every:t.cfg.snapshot_every w.stb with
    | Error e -> failed e
    | Ok (store, recovered) -> (
      let service = make_service t.cfg ~persist:(Some (Store.record store)) in
      match Service.restore service recovered with
      | Error e ->
        Store.close store;
        failed ("restore: " ^ e)
      | Ok sessions ->
        let reply =
          P.Promoted { sessions; generation = Store.generation store }
        in
        w.promoted <- Some (service, reply);
        t.closers <- (fun () -> Store.close store) :: t.closers;
        reply))

let stream_reply = function
  | Ok (gen, records) -> P.Repl_ok { gen; records }
  | Error msg -> P.Failed (P.Bad_request msg)

let warm_handle t w req =
  Mutex.lock w.lock;
  match (w.promoted, req) with
  | Some (service, _), req when req <> P.Promote ->
    Mutex.unlock w.lock;
    Service.handle service req
  | _ ->
    Fun.protect
      ~finally:(fun () -> Mutex.unlock w.lock)
      (fun () ->
        let then_position = Result.map (fun () -> Standby.position w.stb) in
        match req with
        | P.Promote -> promote t w
        | P.Repl_install { gen; snapshot } ->
          stream_reply (then_position (Standby.install w.stb ~gen ~snapshot))
        | P.Repl_rotate { gen } ->
          stream_reply (then_position (Standby.rotate w.stb ~gen))
        | P.Repl_batch { records } ->
          stream_reply (Standby.apply_batch w.stb records)
        | P.Repl_status -> stream_reply (Ok (Standby.position w.stb))
        | _ -> P.Failed (P.Shard_unavailable "standby: not serving (promote first)"))

let handle t req =
  match (t.kind, req) with
  | Serving { repl = Some r; _ }, P.Repl_status ->
    (* the router's Ring_status probe reads the stream's lag *)
    let records, bytes = Repl.lag r in
    P.Repl_lag { records; bytes }
  | Serving s, _ -> Service.handle s.service req
  | Warm w, _ -> warm_handle t w req
  | Routing _, _ -> invalid_arg "Node.handle: a router serves payloads only"

let handle_line t payload =
  match t.kind with
  | Routing r -> Router.handle_line r payload
  | Warm w when String.starts_with ~prefix:Journal.record_magic payload ->
    (* a streamed journal record, as raw JREC bytes *)
    let reply = stream_reply (Standby.apply_batch w.stb [ payload ]) in
    (P.response_to_string reply, true)
  | Serving _ | Warm _ -> (
    match P.request_of_string payload with
    | Error e -> (P.response_to_string (P.Failed e), false)
    | Ok req ->
      let resp =
        try handle t req
        with exn ->
          P.Failed (P.Bad_request ("internal error: " ^ Printexc.to_string exn))
      in
      (P.response_to_string resp, true))

let sweep t = match service t with Some svc -> Service.sweep svc | None -> 0

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
    Wire.serve_handler ~config:cfg.wire ~sweep_every ?sweep (handle_line t)
      cfg.listen
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
  let line_of f x = Option.to_list (Option.map f x) in
  match (t.kind, t.cfg.role) with
  | Serving { store; repl; restored; _ }, _ ->
    Printf.sprintf "listening on %s (max %d sessions, %d threads)" where
      t.cfg.settings.max_sessions t.cfg.wire.threads
    :: line_of
         (fun (c : Jim_server.Coordinator.config) ->
           Printf.sprintf "crowd labeling on — quorum %d, %gs straggler deadline%s"
             c.votes c.timeout
             (if c.weighted then ", accuracy-weighted" else ""))
         t.cfg.settings.crowd
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
        store
  | Warm w, _ ->
    [
      Printf.sprintf "listening on %s, accumulating in %s (serves after Promote)"
        where (Standby.dir w.stb);
    ]
  | Routing r, Router { shards; data_dir; _ } ->
    Printf.sprintf
      "listening on %s, %d shards (%d with standbys), %d live placements" where
      (List.length shards)
      (List.length (List.filter (fun u -> u.Router.promote <> None) shards))
      (Router.session_count r)
    :: line_of (Printf.sprintf "placements durable in %s") data_dir
  | Routing _, (Primary _ | Standby _) -> []

let stats_line t =
  let catalog =
    match service t with
    | Some svc ->
      "; " ^ Catalog.stats_to_string (Catalog.stats (Service.catalog svc))
    | None -> ""
  in
  let commit =
    match t.kind with
    | Serving { store = Some st; _ } when t.cfg.commit_window > 0. ->
      let s = Store.commit_stats st in
      Printf.sprintf "; commit: %d batches / %d records (max %d)"
        s.Journal.batches s.Journal.records s.Journal.max_batch
    | _ -> ""
  in
  Printf.sprintf "wire: %s%s%s" (Netstats.to_string (Netstats.snapshot ()))
    catalog commit
