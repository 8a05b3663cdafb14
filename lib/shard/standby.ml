(* A warm standby: the receiving half of journal-streaming replication.

   The primary ships its baseline (current snapshot text, if any) at
   attach time via [install], then its journal records as JREC bytes
   via [apply]: the records already in its journal at attach, then each
   new event in its concrete form.  The standby appends
   each record to its own journal (group-committed before it
   acknowledges, so "acked by the standby" means "durable on the
   standby") and folds the decoded event through a {!Jim_store.Shadow},
   so on a primary checkpoint ([rotate]) it can write its own snapshot.
   The record that triggers a primary checkpoint lands in the primary's
   old generation but in our new one, so the two directories can differ
   in bytes; each generation recovers the same sessions on both sides.

   Promotion closes the replication journal and runs the ordinary
   {!Jim_store.Store.open_dir} recovery over the directory the standby
   has been building, so a promoted standby replays sessions through
   exactly the code path a restarted primary would. *)

module Journal = Jim_store.Journal
module Snapshot = Jim_store.Snapshot
module Recovery = Jim_store.Recovery
module Shadow = Jim_store.Shadow
module Instances = Jim_store.Instances
module Event = Jim_store.Event
module Io = Jim_store.Io

type t = {
  io : Io.t;
  dir : string;
  fsync : bool;
  lock : Mutex.t;
  mutable gen : int;  (* -1 until the first install *)
  mutable journal : Journal.t option;
  mutable records : int;  (* records applied in the current generation *)
  shadow : Shadow.t;
  durable : (int, int) Hashtbl.t;  (* generation -> durable record count *)
}

let create ?(io = Io.real) ?(fsync = true) ~dir () =
  io.Io.mkdir_p dir;
  {
    io;
    dir;
    fsync;
    lock = Mutex.create ();
    gen = -1;
    journal = None;
    records = 0;
    shadow = Shadow.create ();
    durable = Hashtbl.create 7;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let dir t = t.dir
let position t = locked t (fun () -> (t.gen, t.records))
let session_count t = locked t (fun () -> Shadow.session_count t.shadow)

let durable_prefix t gen =
  locked t (fun () -> Hashtbl.find_opt t.durable gen)

let ( let* ) = Result.bind

(* Remove every store file in the directory — an install replaces the
   standby's world with the primary's current baseline. *)
let wipe t =
  Array.iter
    (fun name ->
      if
        String.length name >= 8
        && (String.sub name 0 8 = "snapshot"
           || String.sub name 0 7 = "journal")
      then t.io.Io.remove (Filename.concat t.dir name))
    (t.io.Io.readdir t.dir)

let write_file t path text =
  match
    let file = t.io.Io.create path in
    let buf = Bytes.of_string text in
    let len = Bytes.length buf in
    let pos = ref 0 in
    while !pos < len do
      let n = file.Io.write buf !pos (len - !pos) in
      if n <= 0 then failwith "short write";
      pos := !pos + n
    done;
    if t.fsync then file.Io.fsync ();
    file.Io.close ()
  with
  | () -> Ok ()
  | exception e -> Error (Printexc.to_string e)

(* The baseline is parsed before anything is wiped, so a snapshot the
   standby would refuse to recover leaves its directory untouched. *)
let install t ~gen ~snapshot =
  let* snap =
    match snapshot with
    | None -> Ok None
    | Some text ->
      Result.map (fun s -> Some (text, s)) (Snapshot.of_string text)
  in
  locked t (fun () ->
      Option.iter Journal.close t.journal;
      t.journal <- None;
      wipe t;
      let* () =
        match snap with
        | None ->
          Shadow.seed t.shadow ~next_id:1 ~instances:Instances.empty [];
          Ok ()
        | Some (text, snap) ->
          let* () = write_file t (Recovery.snapshot_path t.dir gen) text in
          Shadow.seed t.shadow ~next_id:snap.Snapshot.next_id
            ~instances:(Snapshot.instances snap) snap.Snapshot.sessions;
          Ok ()
      in
      let j =
        Journal.create ~fsync:t.fsync ~io:t.io
          (Recovery.journal_path t.dir gen)
      in
      t.journal <- Some j;
      t.gen <- gen;
      t.records <- 0;
      Hashtbl.reset t.durable;
      Hashtbl.replace t.durable gen 0;
      Ok ())

(* A whole group-commit batch at once.  Decode every record and resolve
   its instance reference (against this generation's files, the batch's
   earlier records included) before touching anything — a bad record
   rejects the batch with no side effects.  Each event is then written
   in the form this generation's own files call for, so they stay
   self-contained even when the record left a primary generation that
   ours does not match.  All payloads land as one combined journal
   append under a single fsync barrier and fold through the shadow.
   The returned position is the batch's high-water mark: every record
   in it is durable when the ack leaves. *)
let apply_batch t records =
  let* decoded =
    List.fold_left
      (fun acc record ->
        let* rev = acc in
        let* payload = Journal.decode_record record in
        let* ev = Event.of_string payload in
        Ok ((payload, ev) :: rev))
      (Ok []) records
    |> Result.map List.rev
  in
  locked t (fun () ->
      match t.journal with
      | None -> Error "standby: no generation installed"
      | Some j -> (
        let* written, _ =
          List.fold_left
            (fun acc (payload, received) ->
              let* rev, tbl = acc in
              let* ev, tbl' =
                Result.map_error
                  (( ^ ) "standby: ")
                  (Instances.read_event tbl received)
              in
              let out = Instances.compact_event tbl ev in
              let payload =
                if out == received then payload else Event.to_string out
              in
              Ok ((payload, ev) :: rev, tbl'))
            (Ok ([], Shadow.instances t.shadow))
            decoded
        in
        let written = List.rev written in
        match Journal.append_many j (List.map fst written) with
        | () ->
          List.iter (fun (_, ev) -> Shadow.apply t.shadow ev) written;
          t.records <- t.records + List.length written;
          Hashtbl.replace t.durable t.gen t.records;
          Ok (t.gen, t.records)
        | exception e ->
          Error ("standby batch append failed: " ^ Printexc.to_string e)))

let apply t record = apply_batch t [ record ]

(* The primary checkpointed: write our own snapshot for the new
   generation from the shadow, start a fresh journal, and drop the old
   generation's files.  The primary's checkpoint may have split at a
   different record (the one that triggered it is in the primary's old
   journal but reaches us after this rotate), so the bytes can differ;
   the sessions each generation recovers do not. *)
let rotate t ~gen =
  locked t (fun () ->
      if gen = t.gen then Ok ()  (* idempotent: already there *)
      else begin
        let old_gen = t.gen in
        let snap = Shadow.snapshot t.shadow in
        let* () =
          Snapshot.write ~io:t.io (Recovery.snapshot_path t.dir gen) snap
        in
        Option.iter Journal.close t.journal;
        let j =
          Journal.create ~fsync:t.fsync ~io:t.io
            (Recovery.journal_path t.dir gen)
        in
        t.journal <- Some j;
        Shadow.rotated t.shadow snap;
        if old_gen >= 0 then begin
          t.io.Io.remove (Recovery.journal_path t.dir old_gen);
          t.io.Io.remove (Recovery.snapshot_path t.dir old_gen)
        end;
        t.gen <- gen;
        t.records <- 0;
        Hashtbl.replace t.durable gen 0;
        Ok ()
      end)

let promote ?fsync ?snapshot_every t =
  locked t (fun () ->
      Option.iter Journal.close t.journal;
      t.journal <- None);
  let fsync = Option.value fsync ~default:t.fsync in
  Jim_store.Store.open_dir ~fsync ?snapshot_every ~io:t.io t.dir

let close t =
  locked t (fun () ->
      Option.iter Journal.close t.journal;
      t.journal <- None)
