(* The front process of the sharded serve tier.

   The router speaks the ordinary v1 protocol to clients and places
   every session on one of N shard upstreams via the consistent-hash
   {!Ring}: [Start_session] pins a placement (keyed by session id, or
   by instance fingerprint for [Catalog] sources so each catalog entry
   lives on exactly one shard) and every later request for that id
   follows the pin.  Placements and ring membership are journaled
   (JREC records of {!Rlog} lines) so routing survives a router
   restart.

   A turn relays together: every payload is decoded and placed first,
   then each shard gets its share of the turn as one pipelined batch,
   so the shard serves it in one or two of its own turns and their
   writes share its barrier.  The turn's [Placed] entries are made
   durable by one log sync before any start leaves, and its [Released]
   entries by one more before the replies go back.

   Failover: when a shard's transport dies mid-batch the router
   promotes its standby (the upstream's [promote] closure — see
   {!Front.wire_upstream}), swaps the call paths, journals the
   promotion, and then applies at-most-once discipline to every
   request the break left unanswered: non-mutating requests are retried
   transparently against the promoted standby; mutating requests
   ([Answer]/[Undo]/[End_session]) answer [Shard_unavailable] and let
   the client decide, because the dead primary may or may not have
   acked them.  [Start_session] is retried with a {e fresh} id — the
   old pin is released, so a half-started session on the promoted
   standby is an orphan the TTL sweep collects, never a correctness
   hazard. *)

module P = Jim_api.Protocol
module Journal = Jim_store.Journal
module Io = Jim_store.Io

type upstream = {
  name : string;
  mutable call : string -> (string, string) result;
      (** one request line in, one reply line out; [Error] is a
          transport failure (connect/read/write), not a protocol
          [Failed] *)
  mutable calls : string array -> (string, string) result array;
  promote :
    (unit -> (string array -> (string, string) result array, string) result)
    option;
  mutable promoted : bool;
}

let single calls line = (calls [| line |]).(0)

let batch_upstream ~name ?promote calls =
  { name; call = single calls; calls; promote; promoted = false }

type t = {
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

(* Stage a log entry; [sync_log] makes everything staged durable. *)
let journal_entry t e =
  Option.iter (fun j -> Journal.write j [ Rlog.to_string e ]) t.journal

let sync_log t = Option.iter Journal.sync t.journal

(* Promote [up]'s standby if that has not happened yet, and journal
   the promotion when it does. *)
let ensure_promoted t up =
  if up.promoted then Ok ()
  else
    match up.promote with
    | None -> Error "no standby configured"
    | Some f -> (
      match f () with
      | Ok calls ->
        up.calls <- calls;
        up.call <- single calls;
        up.promoted <- true;
        journal_entry t (Rlog.Failed_over { shard = up.name });
        sync_log t;
        Ok ()
      | Error e -> Error ("standby promotion failed: " ^ e))

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
  sync_log t;
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

let placement t id = Hashtbl.find_opt t.placements id
let session_count t = Hashtbl.length t.placements
let close t = Option.iter Journal.close t.journal

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

let fail e = P.response_to_string (P.Failed e)
let unavailable msg = fail (P.Shard_unavailable msg)

let internal_error exn =
  fail (P.Bad_request ("internal error: " ^ Printexc.to_string exn))

let started_prefix = {|{"jim":1,"resp":"started"|}
let ended_reply = {|{"jim":1,"resp":"ended"}|}

let unknown_session_prefix =
  {|{"jim":1,"resp":"error","error":{"kind":"unknown_session"|}

let upstream_for t shard_name =
  match Hashtbl.find_opt t.shards shard_name with
  | Some up -> Ok up
  | None -> Error (Printf.sprintf "shard %s is not configured" shard_name)

let release t id =
  if Hashtbl.mem t.placements id then begin
    Hashtbl.remove t.placements id;
    journal_entry t (Rlog.Released { session = id })
  end

type start = { source : P.instance_source; strategy : string; seed : int }

type kind =
  | Read  (** non-mutating: retried once on the promoted standby *)
  | Write  (** mutating: never retried after a break (at-most-once) *)
  | End  (** [End_session]: a [Write] whose [Ended] releases the pin *)
  | Start of start  (** retried once with a fresh id *)

(* One request on its way upstream.  [reply] is final once set. *)
type relay = {
  kind : kind;
  mutable up : upstream;
  mutable line : string;
  mutable session : int option;  (** the pin it routes by, or a start's id *)
  mutable retried : bool;
  mutable reply : string option;
}

type plan =
  | Done of string  (** answered by the router itself *)
  | Relay of relay
  | Catalog of relay list  (** one per shard, summed *)

let relay ?session kind up line =
  { kind; up; line; session; retried = false; reply = None }

(* Place a new session: allocate the id, pick the shard, and stage the
   placement — made durable before the start leaves, so a crash in
   between leaves a dead placement (the shard answers
   [Unknown_session]), never an unroutable live session. *)
let place t (s : start) =
  let key =
    match s.source with
    | P.Catalog fp -> fun _ -> Ring.fingerprint_key fp
    | _ -> Ring.session_key
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  match Ring.place t.ring (key id) with
  | None -> Error (unavailable "no shards in the ring")
  | Some shard -> (
    journal_entry t (Rlog.Placed { session = id; shard });
    Hashtbl.replace t.placements id shard;
    match upstream_for t shard with
    | Ok up ->
      let { source; strategy; seed } = s in
      Ok
        ( id,
          up,
          P.request_to_string
            (P.Start_pinned { session = id; source; strategy; seed }) )
    | Error msg ->
      release t id;
      Error (unavailable msg))

let relay_to t ?session kind shard line =
  match upstream_for t shard with
  | Ok up -> Relay (relay ?session kind up line)
  | Error msg -> Done (unavailable msg)

let pinned t id kind line =
  match Hashtbl.find_opt t.placements id with
  | None -> Done (fail (P.Unknown_session id))
  | Some shard -> relay_to t ~session:id kind shard line

let fingerprint t = function
  | P.Catalog fp -> Ok fp
  | source -> (
    let enc = Jim_api.Codec.to_string P.source source in
    match Hashtbl.find_opt t.fps enc with
    | Some fp -> Ok fp
    | None ->
      Result.map
        (fun (rel, _schema) ->
          let fp = Jim_store.Store.fingerprint rel in
          Hashtbl.replace t.fps enc fp;
          fp)
        (Jim_catalog.Catalog.relation_of source))

let plan_register t source line =
  match fingerprint t source with
  | Error e -> Done (fail e)
  | Ok fp -> (
    match Ring.place t.ring (Ring.fingerprint_key fp) with
    | None -> Done (unavailable "no shards in the ring")
    | Some shard -> relay_to t Read shard line)

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
let catalog_reply relays =
  let reached =
    List.filter_map
      (fun r ->
        match Option.map P.response_of_string r.reply with
        | Some (Ok (P.Catalog_info cs)) -> Some cs
        | _ -> None)
      relays
  in
  if reached = [] then unavailable "no shard reachable for catalog stats"
  else P.response_to_string (P.Catalog_info (List.fold_left add_stats zero_stats reached))

let handle_ring_status t =
  let status_line = P.request_to_string P.Repl_status in
  let shards =
    List.map
      (fun m ->
        let up = Hashtbl.find_opt t.shards m in
        let promoted = Option.fold ~none:false ~some:(fun up -> up.promoted) up in
        (* Replication lag is best-effort observability: a shard with an
           attached standby answers [Repl_status] with [Repl_lag]; one
           without (or an unreachable one) contributes no lag fields.
           A plain call, not a relay: a failed status probe must never
           promote a standby. *)
        let lag =
          match up with
          | None -> None
          | Some up -> (
            match up.call status_line with
            | Ok resp -> (
              match P.response_of_string resp with
              | Ok (P.Repl_lag { records; bytes }) -> Some (records, bytes)
              | _ -> None)
            | Error _ -> None)
        in
        { P.shard = m; promoted; lag })
      (Ring.members t.ring)
  in
  P.response_to_string
    (P.Ring_info { shards; sessions = Hashtbl.length t.placements })

let plan_request t line = function
  | P.Start_session { source; strategy; seed } -> (
    let s = { source; strategy; seed } in
    match place t s with
    | Ok (id, up, line) -> Relay (relay ~session:id (Start s) up line)
    | Error reply -> Done reply)
  | P.Start_pinned _ ->
    Done (fail (P.Bad_request "start_pinned is shard-internal (use start_session)"))
  | P.Register_instance { source } -> plan_register t source line
  | P.Catalog_stats ->
    let ups = Hashtbl.fold (fun _ up acc -> up :: acc) t.shards [] in
    if ups = [] then Done (unavailable "no shards configured")
    else Catalog (List.map (fun up -> relay Read up line) ups)
  | P.Ring_status -> Done (handle_ring_status t)
  | P.Repl_install _ | P.Repl_rotate _ | P.Repl_batch _ | P.Repl_status
  | P.Promote ->
    Done (fail (P.Bad_request "replication control messages bypass the router"))
  | P.Get_question { session }
  | P.Top_questions { session; _ }
  | P.Explain { session; _ }
  | P.Result { session }
  | P.Stats { session }
  | P.Get_transcript { session }
  | P.Crowd_stats { session } ->
    pinned t session Read line
  (* Crowd messages route by session like any other.  Attach allocates a
     labeler id and poll/vote can close a round (absorbing an answer), so
     none of them may be transparently retried after a failover. *)
  | P.Answer { session; _ }
  | P.Undo { session }
  | P.Labeler_attach { session }
  | P.Labeler_poll { session; _ }
  | P.Vote { session; _ } ->
    pinned t session Write line
  | P.End_session { session } -> pinned t session End line

(* A reply arrived: it is final, and it may release the pin — a start
   the shard refused, an [Ended], or a session the shard no longer
   knows (evicted or never started). *)
let settle t r reply =
  r.reply <- Some reply;
  let releases =
    match r.kind with
    | Start _ -> not (String.starts_with ~prefix:started_prefix reply)
    | End when String.equal reply ended_reply -> true
    | Read | Write | End ->
      String.starts_with ~prefix:unknown_session_prefix reply
  in
  if releases then Option.iter (release t) r.session

let give_up t r msg =
  (match r.kind with Start _ -> Option.iter (release t) r.session | _ -> ());
  r.reply <- Some (unavailable msg)

(* Send one upstream its share of the turn as one batch (a batch of
   one through [call]).  Replies that arrived stand.  If the transport
   broke, promote the standby once, then apply at-most-once to every
   unanswered request; returns those to relay again. *)
let send_group t up group =
  let was_promoted = up.promoted in
  let results =
    match group with
    | [| r |] -> [| up.call r.line |]
    | _ -> up.calls (Array.map (fun r -> r.line) group)
  in
  let broken =
    List.filter_map
      (fun (r, result) ->
        match result with
        | Ok reply ->
          settle t r reply;
          None
        | Error err -> Some (r, err))
      (List.combine (Array.to_list group) (Array.to_list results))
  in
  match broken with
  | [] -> []
  | (_, err) :: _ -> (
    let promoted =
      if was_promoted then
        Error (Printf.sprintf "shard %s unreachable after failover: %s" up.name err)
      else
        Result.map_error
          (Printf.sprintf "shard %s down (%s); %s" up.name err)
          (ensure_promoted t up)
    in
    match promoted with
    | Error msg ->
      List.iter (fun (r, _) -> give_up t r msg) broken;
      []
    | Ok () ->
      List.filter_map
        (fun (r, _) ->
          match r.kind with
          | Read when not r.retried ->
            r.retried <- true;
            Some r
          | Start s when not r.retried -> (
            Option.iter (release t) r.session;
            r.retried <- true;
            match place t s with
            | Ok (id, up, line) ->
              r.session <- Some id;
              r.up <- up;
              r.line <- line;
              Some r
            | Error reply ->
              r.reply <- Some reply;
              None)
          | Start _ -> give_up t r "shard failed over twice during start"; None
          | Read ->
            give_up t r (Printf.sprintf "shard %s standby unreachable" up.name);
            None
          | Write | End ->
            give_up t r
              (Printf.sprintf
                 "shard %s failed over mid-request; not retried (at-most-once)"
                 up.name);
            None)
        broken)

let rec by_upstream = function
  | [] -> []
  | r :: _ as relays ->
    let mine, rest = List.partition (fun r' -> r'.up == r.up) relays in
    (r.up, Array.of_list mine) :: by_upstream rest

(* Relay rounds: make the staged placements durable, then send each
   upstream its relays, in order, as one batch.  A start that died in
   transit goes round again with a FRESH id (its old pin was released;
   if the dead primary did persist it, the standby holds an orphan the
   idle sweep collects); a read retries on the promoted standby.  Each
   request goes round at most twice. *)
let rec relay_rounds t = function
  | [] -> ()
  | relays ->
    sync_log t;
    relay_rounds t
      (List.concat_map
         (fun (up, group) -> send_group t up group)
         (by_upstream relays))

let turn t payloads =
  let plans =
    Array.map
      (fun payload ->
        match P.request_of_string payload with
        | Error e -> (Done (fail e), false)
        | Ok req -> (
          try (plan_request t payload req, true)
          with exn -> (Done (internal_error exn), true)))
      payloads
  in
  let relays =
    Array.fold_right
      (fun (plan, _) acc ->
        match plan with
        | Done _ -> acc
        | Relay r -> r :: acc
        | Catalog rs -> rs @ acc)
      plans []
  in
  (* the turn's releases become durable before any reply goes back *)
  (match
     relay_rounds t relays;
     sync_log t
   with
  | () -> ()
  | exception exn ->
    List.iter (fun r -> r.reply <- Some (internal_error exn)) relays);
  Array.map
    (fun (plan, parsed) ->
      let reply =
        match plan with
        | Done reply -> reply
        | Relay r -> Option.get r.reply
        | Catalog rs -> catalog_reply rs
      in
      (reply, parsed))
    plans

let handle_line t line = (turn t [| line |]).(0)
