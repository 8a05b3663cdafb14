type t = {
  dir : string;
  io : Io.t;
  fsync : bool;
  snapshot_every : int;
  lock : Mutex.t;
      (* held for the whole of every stage, barrier, checkpoint and
         close, fsync included *)
  shadow : Shadow.t;
  mutable gen : int;
  mutable journal : Journal.t;
  mutable since_snapshot : int;
  mutable closed : bool;
}

let dir t = t.dir
let io t = t.io
let generation t = t.gen
let record_count t = t.since_snapshot

let commit_stats t = Journal.batch_stats (Mutex.protect t.lock (fun () -> t.journal))

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)

let canonical_csv = Jim_relational.Csv.canonical

let fingerprint_of_csv csv = Crc32.to_hex (Crc32.digest_string csv)
let fingerprint rel = fingerprint_of_csv (canonical_csv rel)

(* ------------------------------------------------------------------ *)
(* Checkpoint: snapshot the shadow, rotate the journal, sweep.         *)

(* Caller holds [t.lock].

   Failure discipline: if the snapshot write fails, nothing changed —
   the old generation stays live and the caller's exception leaves the
   store usable (the checkpoint retries at the next record).  If
   the *new journal* creation fails after the snapshot landed, the
   orphan snapshot must not survive: recovery picks the highest
   complete snapshot, and generation g' with no journal would shadow
   every event still being appended to generation g's journal.  *)
let checkpoint_locked t g' =
  let snap = Shadow.snapshot t.shadow in
  (match Snapshot.write ~io:t.io (Recovery.snapshot_path t.dir g') snap with
  | Ok () -> ()
  | Error m -> failwith m);
  let journal' =
    try
      Journal.create ~fsync:t.fsync ~io:t.io
        (Recovery.journal_path t.dir g')
    with exn ->
      (* Unwind in the order that keeps every intermediate crash state
         recoverable: the partial journal first (snapshot g' alone is a
         complete baseline), then the snapshot.  The reverse order has a
         window where journal g' exists without snapshot g' — an orphan
         generation recovery must refuse to anchor on. *)
      (try t.io.Io.remove (Recovery.journal_path t.dir g') with _ -> ());
      (try t.io.Io.remove (Recovery.snapshot_path t.dir g') with _ -> ());
      raise exn
  in
  Journal.close t.journal;
  (* Everything up to here is durable in snapshot g'; the old generation
     is now redundant. *)
  t.io.Io.remove (Recovery.journal_path t.dir t.gen);
  t.io.Io.remove (Recovery.snapshot_path t.dir t.gen);
  t.journal <- journal';
  t.gen <- g';
  t.since_snapshot <- 0;
  Shadow.rotated t.shadow snap

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)

let ( let* ) = Result.bind

let open_dir ?(fsync = true) ?(snapshot_every = 1024) ?(io = Io.real) dir =
  if snapshot_every < 1 then invalid_arg "Store.open_dir: snapshot_every";
  match
    io.Io.mkdir_p dir;
    Recovery.load ~io dir
  with
  | exception Sys_error m -> Error m
  | exception Unix.Unix_error (e, op, arg) ->
    Error (Printf.sprintf "%s %s: %s" op arg (Unix.error_message e))
  | Error _ as e -> e
  | Ok recovered -> (
    (* Cut the torn tail (the one write path that modifies the log) and
       reopen for append; sweep generations the checkpoint protocol made
       redundant. *)
    let* () =
      match recovered.Recovery.torn with
      | None | Some (0, _) -> Ok ()  (* 0: partial file header, recreate *)
      | Some (offset, _) ->
        Journal.truncate ~io recovered.Recovery.journal_path offset
    in
    let journal =
      match recovered.Recovery.torn with
      | Some (0, _) -> Ok (Journal.create ~fsync ~io recovered.Recovery.journal_path)
      | _ ->
        if io.Io.exists recovered.Recovery.journal_path then
          Journal.open_append ~fsync ~io recovered.Recovery.journal_path
        else Ok (Journal.create ~fsync ~io recovered.Recovery.journal_path)
    in
    match journal with
    | Error _ as e -> e
    | Ok journal ->
      let t =
        {
          dir;
          io;
          fsync;
          snapshot_every;
          lock = Mutex.create ();
          shadow = Shadow.create ();
          gen = recovered.Recovery.generation;
          journal;
          since_snapshot = recovered.Recovery.journal_records;
          closed = false;
        }
      in
      Shadow.seed t.shadow ~next_id:recovered.Recovery.next_id
        ~instances:recovered.Recovery.instances
        (List.map Recovery.snapshot_session recovered.Recovery.sessions);
      (* Stale lower generations (crash between rotate and sweep). *)
      for g = 0 to t.gen - 1 do
        io.Io.remove (Recovery.journal_path dir g);
        io.Io.remove (Recovery.snapshot_path dir g)
      done;
      Ok (t, recovered))

(* ------------------------------------------------------------------ *)
(* The write path                                                      *)

(* Caller holds [t.lock].  Refuse a store whose journal a failed write
   or barrier poisoned: its shadow may hold staged events that never
   became durable, and no checkpoint may snapshot them.  Then run the
   automatic checkpoint if the generation is full, so the records about
   to be staged open the next generation.  On a raise (closed or
   poisoned store, failed checkpoint) nothing was written. *)
let admit t =
  if t.closed then invalid_arg "Store.record: closed";
  if Journal.failed t.journal then raise Journal.Poisoned;
  if t.since_snapshot >= t.snapshot_every then checkpoint_locked t (t.gen + 1)

let stage_many t evs =
  Mutex.protect t.lock @@ fun () ->
  admit t;
  (* Folding the generation's instance table through the batch: each
     record resolves against the table as the records before it leave
     it, and is written in the form that table calls for.  An instance
     enters the shadow's table only once its concrete record is
     written, so a reference never precedes its origin in this
     journal. *)
  let folded =
    List.fold_left
      (fun acc ev ->
        let* rev, tbl = acc in
        let* concrete, tbl' = Instances.read_event tbl ev in
        let payload = Event.to_string (Instances.compact_event tbl concrete) in
        Ok ((concrete, payload) :: rev, tbl'))
      (Ok ([], Shadow.instances t.shadow))
      evs
  in
  let* rev, _ = folded in
  let evs = List.rev rev in
  let payloads = List.map snd evs in
  Journal.write t.journal payloads;
  List.iter (fun (ev, _) -> Shadow.apply t.shadow ev) evs;
  t.since_snapshot <- t.since_snapshot + List.length evs;
  Ok payloads

let stage t ev =
  match stage_many t [ ev ] with
  | Ok payloads -> List.hd payloads  (* one per event *)
  | Error m -> invalid_arg ("Store.record: " ^ m)

let sync t =
  Mutex.protect t.lock (fun () ->
      if t.closed then invalid_arg "Store.sync: closed";
      Journal.sync t.journal)

let record_many t evs =
  let* _ = stage_many t evs in
  sync t;
  Ok ()

let record t ev =
  ignore (stage t ev);
  sync t

let checkpoint ?gen t =
  Mutex.protect t.lock (fun () ->
      let g' = Option.value gen ~default:(t.gen + 1) in
      if g' <= t.gen then invalid_arg "Store.checkpoint: gen";
      if not t.closed then begin
        if Journal.failed t.journal then raise Journal.Poisoned;
        checkpoint_locked t g'
      end)

let close t =
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Journal.close t.journal
      end)
