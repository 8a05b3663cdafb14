(* A warm standby: the receiving half of journal-streaming replication,
   and a {!Jim_store.Store} fed by the stream.  [install] writes the
   primary's snapshot bytes verbatim and opens a store over them;
   [apply_batch] lands records through the store's own write path
   (durable before the ack); [rotate] is the store's own checkpoint —
   the standby never checkpoints by itself.  The primary checkpoints at
   the start of the record that finds its generation full, and the
   stream rotates before shipping that record, so a stream shipped in
   journal order leaves both directories byte-identical; under
   concurrent writers each generation recovers the same sessions.
   Promotion closes the store and runs {!Jim_store.Store.open_dir} over
   the directory, the path a restarted primary takes. *)

module Store = Jim_store.Store
module Snapshot = Jim_store.Snapshot
module Io = Jim_store.Io

type t = {
  io : Io.t;
  dir : string;
  fsync : bool;
  mutable store : Store.t option;  (* None until the first install *)
}

let create ?(io = Io.real) ?(fsync = true) ~dir () =
  io.Io.mkdir_p dir;
  { io; dir; fsync; store = None }

let dir t = t.dir
let ( let* ) = Result.bind

let position t =
  match t.store with
  | None -> (-1, 0)
  | Some s -> (Store.generation s, Store.record_count s)

let close t =
  Option.iter Store.close t.store;
  t.store <- None

(* An install replaces the standby's world with the primary's baseline:
   every store file goes.  The baseline is parsed before anything is
   wiped, so a snapshot the standby would refuse to recover leaves its
   directory untouched. *)
let install t ~gen ~snapshot =
  let* () =
    match snapshot with
    | Some text -> Result.map ignore (Snapshot.of_string text)
    | None when gen = 0 -> Ok ()
    | None -> Error (Printf.sprintf "standby: no snapshot for generation %d" gen)
  in
  close t;
  Array.iter
    (fun name ->
      if String.starts_with ~prefix:"snapshot" name
         || String.starts_with ~prefix:"journal" name
      then t.io.Io.remove (Filename.concat t.dir name))
    (t.io.Io.readdir t.dir);
  let* () =
    Option.fold snapshot ~none:(Ok ()) ~some:(fun text ->
        let path = Jim_store.Recovery.snapshot_path t.dir gen in
        Snapshot.write_text ~io:t.io path text)
  in
  let* store, _ =
    Store.open_dir ~fsync:t.fsync ~snapshot_every:max_int ~io:t.io t.dir
  in
  Ok (t.store <- Some store)

let with_store t f =
  match t.store with
  | None -> Error "standby: no generation installed"
  | Some s ->
    Result.map_error (( ^ ) "standby: ")
      (try f s with e -> Error (Printexc.to_string e))

(* Every record is decoded before the store sees any, and the store
   refuses a bad reference before writing.  The position returned is
   the batch's high-water mark, all of it durable. *)
let apply_batch t records =
  let decode record =
    Result.bind (Jim_store.Journal.decode_record record) Jim_store.Event.of_string
  in
  let* events =
    List.fold_right
      (fun record acc ->
        let* ev = decode record in
        Result.map (List.cons ev) acc)
      records (Ok [])
  in
  with_store t (fun s ->
      let* () = Store.record_many s events in
      Ok (Store.generation s, Store.record_count s))

(* The primary checkpointed, maybe more than once since the last batch.
   Going back, or rotating before any install, touches nothing. *)
let rotate t ~gen =
  with_store t (fun s ->
      let current = Store.generation s in
      if gen < current then
        Error (Printf.sprintf "rotate to generation %d below %d" gen current)
      else Ok (if gen > current then Store.checkpoint ~gen s))

let promote ?fsync ?snapshot_every t =
  close t;
  let fsync = Option.value fsync ~default:t.fsync in
  Store.open_dir ~fsync ?snapshot_every ~io:t.io t.dir
