type t = {
  dir : string;
  io : Io.t;
  fsync : bool;
  commit_window : float;
  snapshot_every : int;
  lock : Mutex.t;
  idle : Condition.t;
  shadow : Shadow.t;
  mutable gen : int;
  mutable journal : Journal.t;
  mutable since_snapshot : int;
  mutable inflight : int;  (* appends between handle-grab and completion *)
  mutable checkpointing : bool;
  mutable closed : bool;
}

let dir t = t.dir
let io t = t.io
let generation t = t.gen
let record_count t = t.since_snapshot

let commit_stats t =
  Mutex.lock t.lock;
  let j = t.journal in
  Mutex.unlock t.lock;
  Journal.batch_stats j

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)

let canonical_csv rel =
  let module Relation = Jim_relational.Relation in
  let module Schema = Jim_relational.Schema in
  let header =
    Array.to_list (Schema.names (Relation.schema rel))
    @ List.map Jim_relational.Value.ty_name
        (Array.to_list (Schema.types (Relation.schema rel)))
  in
  let rows =
    List.map
      (fun tup ->
        List.map Jim_relational.Value.to_string (Array.to_list tup))
      (Relation.tuples rel)
  in
  Jim_relational.Csv.print_string (header :: rows)

let fingerprint_of_csv csv = Crc32.to_hex (Crc32.digest_string csv)
let fingerprint rel = fingerprint_of_csv (canonical_csv rel)

(* ------------------------------------------------------------------ *)
(* Checkpoint: snapshot the shadow, rotate the journal, sweep.         *)

(* Caller holds [t.lock] and has quiesced appends ([t.inflight = 0]).

   Failure discipline: if the snapshot write fails, nothing changed —
   the old generation stays live and the caller's exception leaves the
   store usable (the checkpoint retries at the next due record).  If
   the *new journal* creation fails after the snapshot landed, the
   orphan snapshot must not survive: recovery picks the highest
   complete snapshot, and generation g+1 with no journal would shadow
   every event still being appended to generation g's journal.  *)
let checkpoint_locked t =
  let g' = t.gen + 1 in
  let snap = Shadow.snapshot t.shadow in
  (match Snapshot.write ~io:t.io (Recovery.snapshot_path t.dir g') snap with
  | Ok () -> ()
  | Error m -> failwith m);
  let journal' =
    try
      Journal.create ~fsync:t.fsync ~window:t.commit_window ~io:t.io
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

let open_dir ?(fsync = true) ?(commit_window = 0.) ?(snapshot_every = 1024)
    ?(io = Io.real) dir =
  if snapshot_every < 1 then invalid_arg "Store.open_dir: snapshot_every";
  if commit_window < 0. then invalid_arg "Store.open_dir: commit_window";
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
      | Some (0, _) ->
        Ok
          (Journal.create ~fsync ~window:commit_window ~io
             recovered.Recovery.journal_path)
      | _ ->
        if io.Io.exists recovered.Recovery.journal_path then
          Journal.open_append ~fsync ~window:commit_window ~io
            recovered.Recovery.journal_path
        else
          Ok
            (Journal.create ~fsync ~window:commit_window ~io
               recovered.Recovery.journal_path)
    in
    match journal with
    | Error _ as e -> e
    | Ok journal ->
      let t =
        {
          dir;
          io;
          fsync;
          commit_window;
          snapshot_every;
          lock = Mutex.create ();
          idle = Condition.create ();
          shadow = Shadow.create ();
          gen = recovered.Recovery.generation;
          journal;
          since_snapshot = recovered.Recovery.journal_records;
          inflight = 0;
          checkpointing = false;
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
(* The hot path                                                        *)

let record t ev =
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Store.record: closed"
  end;
  while t.checkpointing do
    Condition.wait t.idle t.lock
  done;
  let journal = t.journal in
  (* Decided with the handle: an instance enters the table only once
     its concrete record is appended, so a reference never precedes its
     origin in this journal, whatever happens to later appends. *)
  let written = Shadow.compact t.shadow ev in
  t.inflight <- t.inflight + 1;
  Mutex.unlock t.lock;
  (* Journal first, shadow second: if the append fails the caller
     reports Failed, and the event must not survive into the next
     snapshot via the shadow — recovery would resurrect state the
     client was told did not happen.  Our inflight ticket keeps the
     checkpointer out until the shadow catches up. *)
  let finish applied =
    Mutex.lock t.lock;
    if applied then begin
      Shadow.apply t.shadow ev;
      t.since_snapshot <- t.since_snapshot + 1
    end;
    t.inflight <- t.inflight - 1;
    if t.inflight = 0 then Condition.broadcast t.idle;
    let due = applied && t.since_snapshot >= t.snapshot_every in
    Mutex.unlock t.lock;
    due
  in
  (try Journal.append journal (Event.to_string written)
   with exn ->
     ignore (finish false);
     raise exn);
  let due = finish true in
  if due then begin
    Mutex.lock t.lock;
    if t.since_snapshot >= t.snapshot_every && not t.checkpointing then begin
      t.checkpointing <- true;
      while t.inflight > 0 do
        Condition.wait t.idle t.lock
      done;
      Fun.protect
        ~finally:(fun () ->
          t.checkpointing <- false;
          Condition.broadcast t.idle)
        (fun () -> checkpoint_locked t)
    end;
    Mutex.unlock t.lock
  end

let checkpoint t =
  Mutex.lock t.lock;
  if not t.closed && not t.checkpointing then begin
    t.checkpointing <- true;
    while t.inflight > 0 do
      Condition.wait t.idle t.lock
    done;
    Fun.protect
      ~finally:(fun () ->
        t.checkpointing <- false;
        Condition.broadcast t.idle)
      (fun () -> checkpoint_locked t)
  end;
  Mutex.unlock t.lock

let close t =
  Mutex.lock t.lock;
  if not t.closed then begin
    while t.checkpointing do
      Condition.wait t.idle t.lock
    done;
    while t.inflight > 0 do
      Condition.wait t.idle t.lock
    done;
    t.closed <- true;
    Journal.close t.journal
  end;
  Mutex.unlock t.lock
