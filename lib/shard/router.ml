(* The front process of the sharded serve tier.

   The router speaks the ordinary v1 protocol to clients and places
   every session on one of N shard upstreams via the consistent-hash
   {!Ring}: [Start_session] pins a placement (keyed by session id, or
   by instance fingerprint for [Catalog] sources so each catalog entry
   lives on exactly one shard) and every later request for that id
   follows the pin.  Placements and ring membership are journaled
   (JREC records of {!Rlog} lines) so routing survives a router
   restart.

   Failover: when a shard's transport dies mid-request the router
   promotes its standby (the upstream's [promote] closure — see
   {!Front.wire_upstream}), swaps the call path, journals the
   promotion, and then applies at-most-once discipline: non-mutating
   requests are retried transparently against the promoted standby;
   mutating requests ([Answer]/[Undo]/[End_session]) answer
   [Shard_unavailable] and let the client decide, because the dead
   primary may or may not have acked them.  [Start_session] is retried
   with a {e fresh} id — the old pin is released, so a half-started
   session on the promoted standby is an orphan the TTL sweep
   collects, never a correctness hazard. *)

module P = Jim_api.Protocol
module Journal = Jim_store.Journal
module Io = Jim_store.Io

type upstream = {
  name : string;
  mutable call : string -> (string, string) result;
      (** one request line in, one reply line out; [Error] is a
          transport failure (connect/read/write), not a protocol
          [Failed] *)
  promote : (unit -> ((string -> (string, string) result), string) result) option;
  mutable promoted : bool;
  ulock : Mutex.t;
}

let upstream ~name ?promote call =
  { name; call; promote; promoted = false; ulock = Mutex.create () }

type t = {
  lock : Mutex.t;
  ring : Ring.t;
  shards : (string, upstream) Hashtbl.t;
  placements : (int, string) Hashtbl.t;
  mutable next_id : int;
  journal : Journal.t option;
  fps : (string, string) Hashtbl.t;
      (* encoded concrete source -> fingerprint, memoized so repeat
         registrations don't re-derive the relation *)
}

let ( let* ) = Result.bind

let rlog_path dir = Filename.concat dir "router.wal"

(* Rebuild membership / placements / next_id from the journaled log. *)
let replay records =
  let members = Hashtbl.create 7 in
  let placements = Hashtbl.create 64 in
  let failed_over = Hashtbl.create 7 in
  let next_id = ref 1 in
  let* () =
    List.fold_left
      (fun acc (_off, payload) ->
        let* () = acc in
        let* e = Rlog.of_string payload in
        (match e with
        | Rlog.Member_added m -> Hashtbl.replace members m ()
        | Rlog.Member_removed m ->
          Hashtbl.remove members m;
          Hashtbl.remove failed_over m
        | Rlog.Placed { session; shard } ->
          Hashtbl.replace placements session shard;
          if session >= !next_id then next_id := session + 1
        | Rlog.Released { session } -> Hashtbl.remove placements session
        | Rlog.Failed_over { shard } -> Hashtbl.replace failed_over shard ());
        Ok ())
      (Ok ()) records
  in
  Ok (members, placements, failed_over, !next_id)

let journal_entry t e =
  match t.journal with
  | None -> ()
  | Some j -> Journal.append j (Rlog.to_string e)

(* Promote [up]'s standby if that has not happened yet.  Ok () means
   the upstream is promoted now (by us or a racing thread); the
   promotion is journaled exactly when we performed it. *)
let ensure_promoted t up =
  Mutex.lock up.ulock;
  let result =
    if up.promoted then Ok `Already
    else
      match up.promote with
      | None -> Error "no standby configured"
      | Some f -> (
        match f () with
        | Ok call ->
          up.call <- call;
          up.promoted <- true;
          Ok `Promoted
        | Error e -> Error ("standby promotion failed: " ^ e))
  in
  Mutex.unlock up.ulock;
  match result with
  | Ok `Promoted ->
    Mutex.lock t.lock;
    journal_entry t (Rlog.Failed_over { shard = up.name });
    Mutex.unlock t.lock;
    Ok ()
  | Ok `Already -> Ok ()
  | Error e -> Error e

let create ?(io = Io.real) ?dir ?vnodes ~shards () =
  let tbl = Hashtbl.create 7 in
  List.iter (fun up -> Hashtbl.replace tbl up.name up) shards;
  let configured = List.map (fun up -> up.name) shards in
  let* journal, journaled_members, placements, failed_over, next_id =
    match dir with
    | None -> Ok (None, Hashtbl.create 1, Hashtbl.create 64, Hashtbl.create 1, 1)
    | Some dir ->
      io.Io.mkdir_p dir;
      let path = rlog_path dir in
      if io.Io.exists path then begin
        let* records, tail =
          match Journal.scan ~io path with
          | Ok v -> Ok v
          | Error (`Corrupt (off, why)) ->
            Error (Printf.sprintf "router log corrupt at byte %d: %s" off why)
        in
        let* () =
          match tail with
          | Journal.Complete -> Ok ()
          | Journal.Truncated { offset; _ } -> Journal.truncate ~io path offset
        in
        let* members, placements, failed_over, next_id = replay records in
        let* j = Journal.open_append ~io path in
        Ok (Some j, members, placements, failed_over, next_id)
      end
      else
        Ok
          ( Some (Journal.create ~io path),
            Hashtbl.create 1,
            Hashtbl.create 64,
            Hashtbl.create 1,
            1 )
  in
  let t =
    {
      lock = Mutex.create ();
      ring = Ring.create ?vnodes configured;
      shards = tbl;
      placements;
      next_id;
      journal;
      fps = Hashtbl.create 16;
    }
  in
  (* Reconcile configured membership against the journaled set, so the
     log always describes the ring a restarted router will build. *)
  List.iter
    (fun m ->
      if not (Hashtbl.mem journaled_members m) then
        journal_entry t (Rlog.Member_added m))
    configured;
  Hashtbl.iter
    (fun m () ->
      if not (List.mem m configured) then
        journal_entry t (Rlog.Member_removed m))
    journaled_members;
  (* A journaled promotion means the primary is gone: re-point those
     upstreams at their standbys before serving (best effort — a
     failed attempt is retried by the ordinary failover path). *)
  Hashtbl.iter
    (fun m () ->
      match Hashtbl.find_opt tbl m with
      | Some up -> ignore (ensure_promoted t up)
      | None -> ())
    failed_over;
  Ok t

let placement t id =
  Mutex.lock t.lock;
  let p = Hashtbl.find_opt t.placements id in
  Mutex.unlock t.lock;
  p

let session_count t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.placements in
  Mutex.unlock t.lock;
  n

let close t =
  Mutex.lock t.lock;
  Option.iter Journal.close t.journal;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

let fail e = P.response_to_string (P.Failed e)
let unavailable msg = fail (P.Shard_unavailable msg)

let call_of up =
  Mutex.lock up.ulock;
  let c = up.call and p = up.promoted in
  Mutex.unlock up.ulock;
  (c, p)

(* Forward one line; on transport failure promote the standby and —
   only for [retryable] (non-mutating) requests — retry once. *)
let forward t up ~retryable line =
  let c, was_promoted = call_of up in
  match c line with
  | Ok resp -> Ok resp
  | Error err ->
    if was_promoted then
      Error (Printf.sprintf "shard %s unreachable after failover: %s" up.name err)
    else (
      match ensure_promoted t up with
      | Error e ->
        Error (Printf.sprintf "shard %s down (%s); %s" up.name err e)
      | Ok () ->
        if retryable then (
          let c, _ = call_of up in
          match c line with
          | Ok resp -> Ok resp
          | Error e2 ->
            Error
              (Printf.sprintf "shard %s standby unreachable: %s" up.name e2))
        else
          Error
            (Printf.sprintf
               "shard %s failed over mid-request; not retried (at-most-once)"
               up.name))

let upstream_for t shard_name =
  match Hashtbl.find_opt t.shards shard_name with
  | Some up -> Ok up
  | None -> Error (Printf.sprintf "shard %s is not configured" shard_name)

let release t id =
  Mutex.lock t.lock;
  if Hashtbl.mem t.placements id then begin
    Hashtbl.remove t.placements id;
    journal_entry t (Rlog.Released { session = id })
  end;
  Mutex.unlock t.lock

(* Place a new session: allocate the id, pick the shard, and journal
   the placement BEFORE the start is forwarded — a crash in between
   leaves a dead placement (the shard answers [Unknown_session]),
   never an unroutable live session. *)
let place_new t ~key_of_id =
  Mutex.lock t.lock;
  let id = t.next_id in
  t.next_id <- id + 1;
  let shard = Ring.place t.ring (key_of_id id) in
  (match shard with
  | Some shard ->
    journal_entry t (Rlog.Placed { session = id; shard });
    Hashtbl.replace t.placements id shard
  | None -> ());
  Mutex.unlock t.lock;
  (id, shard)

let handle_start t source strategy seed =
  let key_of_id =
    match source with
    | P.Catalog fp -> fun _ -> Ring.fingerprint_key fp
    | _ -> fun id -> Ring.session_key id
  in
  let start_once () =
    let id, shard = place_new t ~key_of_id in
    match shard with
    | None -> Error (`Final (unavailable "no shards in the ring"))
    | Some shard_name -> (
      match upstream_for t shard_name with
      | Error msg ->
        release t id;
        Error (`Final (unavailable msg))
      | Ok up -> (
        let line =
          P.request_to_string
            (P.Start_pinned { session = id; source; strategy; seed })
        in
        let c, was_promoted = call_of up in
        match c line with
        | Ok resp ->
          (match P.response_of_string resp with
          | Ok (P.Failed _) | Error _ -> release t id
          | Ok _ -> ());
          Ok resp
        | Error err ->
          release t id;
          if was_promoted then
            Error
              (`Final
                (unavailable
                   (Printf.sprintf "shard %s unreachable after failover: %s"
                      shard_name err)))
          else (
            match ensure_promoted t up with
            | Ok () -> Error `Retry
            | Error e ->
              Error
                (`Final
                  (unavailable
                     (Printf.sprintf "shard %s down (%s); %s" shard_name err
                        e))))))
  in
  (* A start that died in transit is retried once with a FRESH id
     against the promoted standby: the old pin is released, and if the
     dead primary did persist the start, the standby holds an orphan
     session the idle sweep collects. *)
  match start_once () with
  | Ok resp -> resp
  | Error (`Final resp) -> resp
  | Error `Retry -> (
    match start_once () with
    | Ok resp -> resp
    | Error (`Final resp) -> resp
    | Error `Retry -> unavailable "shard failed over twice during start")

let handle_session t id ~retryable ~ended_releases line =
  match placement t id with
  | None -> fail (P.Unknown_session id)
  | Some shard_name -> (
    match upstream_for t shard_name with
    | Error msg -> unavailable msg
    | Ok up -> (
      match forward t up ~retryable line with
      | Error msg -> unavailable msg
      | Ok resp ->
        (match P.response_of_string resp with
        | Ok P.Ended when ended_releases -> release t id
        | Ok (P.Failed (P.Unknown_session _)) ->
          (* evicted or never started on the shard: drop the stale pin *)
          release t id
        | _ -> ());
        resp))

let handle_register t source line =
  let fp =
    match source with
    | P.Catalog fp -> Ok fp
    | _ -> (
      let enc = Jim_api.Codec.to_string P.source source in
      Mutex.lock t.lock;
      let memo = Hashtbl.find_opt t.fps enc in
      Mutex.unlock t.lock;
      match memo with
      | Some fp -> Ok fp
      | None -> (
        match Jim_catalog.Catalog.relation_of source with
        | Error e -> Error e
        | Ok (rel, _schema) ->
          let fp = Jim_store.Store.fingerprint rel in
          Mutex.lock t.lock;
          Hashtbl.replace t.fps enc fp;
          Mutex.unlock t.lock;
          Ok fp))
  in
  match fp with
  | Error e -> fail e
  | Ok fp -> (
    Mutex.lock t.lock;
    let shard = Ring.place t.ring (Ring.fingerprint_key fp) in
    Mutex.unlock t.lock;
    match shard with
    | None -> unavailable "no shards in the ring"
    | Some shard_name -> (
      match upstream_for t shard_name with
      | Error msg -> unavailable msg
      | Ok up -> (
        match forward t up ~retryable:true line with
        | Ok resp -> resp
        | Error msg -> unavailable msg)))

let add_stats (a : P.catalog_stats) (b : P.catalog_stats) : P.catalog_stats =
  {
    entries = a.entries + b.entries;
    bytes = a.bytes + b.bytes;
    pinned = a.pinned + b.pinned;
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    fingerprints = a.fingerprints + b.fingerprints;
    derivations = a.derivations + b.derivations;
  }

let zero_stats : P.catalog_stats =
  {
    entries = 0;
    bytes = 0;
    pinned = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    fingerprints = 0;
    derivations = 0;
  }

(* Catalog counters live per shard; the router-level answer is the sum
   over every reachable shard. *)
let handle_catalog_stats t line =
  let ups = Hashtbl.fold (fun _ up acc -> up :: acc) t.shards [] in
  if ups = [] then unavailable "no shards configured"
  else begin
    let total = ref zero_stats and reached = ref 0 in
    List.iter
      (fun up ->
        match forward t up ~retryable:true line with
        | Ok resp -> (
          match P.response_of_string resp with
          | Ok (P.Catalog_info cs) ->
            total := add_stats !total cs;
            incr reached
          | _ -> ())
        | Error _ -> ())
      ups;
    if !reached = 0 then unavailable "no shard reachable for catalog stats"
    else P.response_to_string (P.Catalog_info !total)
  end

let handle_ring_status t =
  Mutex.lock t.lock;
  let sessions = Hashtbl.length t.placements in
  let members = Ring.members t.ring in
  Mutex.unlock t.lock;
  let status_line = P.request_to_string P.Repl_status in
  let shards =
    List.map
      (fun m ->
        let up = Hashtbl.find_opt t.shards m in
        let promoted =
          match up with
          | Some up ->
            Mutex.lock up.ulock;
            let p = up.promoted in
            Mutex.unlock up.ulock;
            p
          | None -> false
        in
        (* Replication lag is best-effort observability: a shard with an
           attached standby answers [Repl_status] with [Repl_lag]; one
           without (or an unreachable one) contributes no lag fields.
           Plain [call_of], not [forward]: a failed status probe must
           never promote a standby. *)
        let lag =
          match up with
          | None -> None
          | Some up -> (
            let c, _ = call_of up in
            match c status_line with
            | Ok resp -> (
              match P.response_of_string resp with
              | Ok (P.Repl_lag { records; bytes }) -> Some (records, bytes)
              | _ -> None)
            | Error _ -> None)
        in
        { P.shard = m; promoted; lag })
      members
  in
  P.response_to_string (P.Ring_info { shards; sessions })

let route t line = function
  | P.Start_session { source; strategy; seed } ->
    handle_start t source strategy seed
  | P.Start_pinned _ ->
    fail (P.Bad_request "start_pinned is shard-internal (use start_session)")
  | P.Register_instance { source } -> handle_register t source line
  | P.Catalog_stats -> handle_catalog_stats t line
  | P.Ring_status -> handle_ring_status t
  | P.Repl_install _ | P.Repl_rotate _ | P.Repl_batch _ | P.Repl_status
  | P.Promote ->
    fail (P.Bad_request "replication control messages bypass the router")
  | P.Get_question { session }
  | P.Top_questions { session; _ }
  | P.Explain { session; _ }
  | P.Result { session }
  | P.Stats { session }
  | P.Get_transcript { session } ->
    handle_session t session ~retryable:true ~ended_releases:false line
  | P.Answer { session; _ } | P.Undo { session } ->
    handle_session t session ~retryable:false ~ended_releases:false line
  (* Crowd messages route by session like any other.  Attach allocates a
     labeler id and poll/vote can close a round (absorbing an answer), so
     none of them may be transparently retried after a failover. *)
  | P.Labeler_attach { session }
  | P.Labeler_poll { session; _ }
  | P.Vote { session; _ } ->
    handle_session t session ~retryable:false ~ended_releases:false line
  | P.Crowd_stats { session } ->
    handle_session t session ~retryable:true ~ended_releases:false line
  | P.End_session { session } ->
    handle_session t session ~retryable:false ~ended_releases:true line

(* The router's [Wire.serve_handler] handler: same (reply, parsed)
   contract as [Node.handle_line]. *)
let handle_line t line =
  match P.request_of_string line with
  | Error e -> (fail e, false)
  | Ok req -> (
    match route t line req with
    | resp -> (resp, true)
    | exception e ->
      (fail (P.Bad_request ("internal error: " ^ Printexc.to_string e)), true))
