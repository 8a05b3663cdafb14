module P = Jim_api.Protocol
module Transcript = Jim_core.Transcript

type step =
  | Label of {
      cls : int option;
      sg : Jim_partition.Partition.t;
      label : Jim_core.State.label;
    }
  | Undo

type session = {
  id : int;
  arity : int;
  source : P.instance_source;
  strategy : string;
  seed : int;
  fingerprint : string;
  steps : step list;
}

type t = {
  generation : int;
  next_id : int;
  sessions : session list;
  journal_path : string;
  journal_records : int;
  torn : (int * int) option;
  instances : Instances.t;
}

(* The session's surviving labels as a snapshot entry: fold the steps
   (labels push, undos pop), exactly how the live shadow maintains its
   transcript. *)
let snapshot_session (s : session) =
  let entries_rev =
    List.fold_left
      (fun acc step ->
        match step with
        | Label { sg; label; _ } -> { Transcript.sg; label } :: acc
        | Undo -> ( match acc with [] -> [] | _ :: tl -> tl))
      [] s.steps
  in
  {
    Snapshot.id = s.id;
    source = s.source;
    strategy = s.strategy;
    seed = s.seed;
    fingerprint = s.fingerprint;
    transcript =
      {
        Transcript.arity = s.arity;
        entries = List.rev entries_rev;
        result = None;
      };
  }

let snapshot_path dir g = Filename.concat dir (Printf.sprintf "snapshot.%d" g)

let journal_path dir g =
  Filename.concat dir (Printf.sprintf "journal.%d.wal" g)

(* Parse "snapshot.<g>" / "journal.<g>.wal" names; anything else in the
   directory is not ours and is left alone. *)
let generations ?(io = Io.real) dir =
  let snaps = ref [] and journals = ref [] in
  Array.iter
    (fun name ->
      match String.split_on_char '.' name with
      | [ "snapshot"; g ] ->
        Option.iter (fun g -> snaps := g :: !snaps) (int_of_string_opt g)
      | [ "journal"; g; "wal" ] ->
        Option.iter (fun g -> journals := g :: !journals) (int_of_string_opt g)
      | _ -> ())
    (io.Io.readdir dir);
  (List.sort compare !snaps, List.sort compare !journals)

let ( let* ) = Result.bind

(* Chronological mutable builder for the fold over the journal tail. *)
type building = {
  b_id : int;
  b_arity : int;
  b_source : P.instance_source;
  b_strategy : string;
  b_seed : int;
  b_fingerprint : string;
  mutable b_steps_rev : step list;
}

let apply_events base_sessions ~next_id ~file events =
  let tbl = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace tbl b.b_id b) base_sessions;
  (* Sessions removed by an Ended event.  A racy writer can journal an
     answer/undo (or a second Ended) after Ended for the same session;
     Store.apply_shadow drops such events, so replay must too — only
     events for sessions that were *never* known are integrity errors. *)
  let ended = Hashtbl.create 8 in
  let next_id = ref next_id in
  let err offset fmt =
    Printf.ksprintf
      (fun m ->
        Error
          (Printf.sprintf "%s: inconsistent event at byte offset %d: %s" file
             offset m))
      fmt
  in
  let rec go = function
    | [] -> Ok ()
    | (offset, ev) :: rest -> (
      match ev with
      | Event.Started { session; arity; source; strategy; seed; fingerprint }
        ->
        if Hashtbl.mem tbl session then
          err offset "session %d started twice" session
        else begin
          Hashtbl.replace tbl session
            {
              b_id = session;
              b_arity = arity;
              b_source = source;
              b_strategy = strategy;
              b_seed = seed;
              b_fingerprint = fingerprint;
              b_steps_rev = [];
            };
          next_id := max !next_id (session + 1);
          go rest
        end
      | Event.Answered { session; cls; sg; label } -> (
        match Hashtbl.find_opt tbl session with
        | None ->
          if Hashtbl.mem ended session then go rest
          else err offset "answer for unknown session %d" session
        | Some b ->
          b.b_steps_rev <- Label { cls = Some cls; sg; label } :: b.b_steps_rev;
          go rest)
      | Event.Undone { session } -> (
        match Hashtbl.find_opt tbl session with
        | None ->
          if Hashtbl.mem ended session then go rest
          else err offset "undo for unknown session %d" session
        | Some b ->
          b.b_steps_rev <- Undo :: b.b_steps_rev;
          go rest)
      | Event.Ended { session } ->
        if Hashtbl.mem tbl session then begin
          Hashtbl.remove tbl session;
          Hashtbl.replace ended session ();
          go rest
        end
        else if Hashtbl.mem ended session then go rest
        else err offset "end for unknown session %d" session)
  in
  let* () = go events in
  let sessions =
    Hashtbl.fold
      (fun _ b acc ->
        {
          id = b.b_id;
          arity = b.b_arity;
          source = b.b_source;
          strategy = b.b_strategy;
          seed = b.b_seed;
          fingerprint = b.b_fingerprint;
          steps = List.rev b.b_steps_rev;
        }
        :: acc)
      tbl []
    |> List.sort (fun a b -> compare a.id b.id)
  in
  Ok (sessions, !next_id)

let load ?(io = Io.real) dir =
  let snaps, journals = generations ~io dir in
  let generation =
    match (List.rev snaps, journals) with
    | g :: _, _ -> g  (* highest complete snapshot wins *)
    | [], g :: _ ->
      (* No snapshot anywhere: only the *lowest* journal can be a live
         baseline.  A journal above it without its snapshot is the
         orphan of a checkpoint that failed between creating the new
         journal and removing it again — anchoring there would discard
         (and then sweep) every acknowledged record below. *)
      g
    | [], [] -> 0
  in
  let* base, next_id, instances =
    if List.mem generation snaps then
      let* snap = Snapshot.load ~io (snapshot_path dir generation) in
      Ok
        ( List.map
            (fun (s : Snapshot.session) ->
              {
                b_id = s.Snapshot.id;
                b_arity = s.transcript.Transcript.arity;
                b_source = s.source;
                b_strategy = s.strategy;
                b_seed = s.seed;
                b_fingerprint = s.fingerprint;
                b_steps_rev =
                  List.rev_map
                    (fun (e : Transcript.entry) ->
                      Label { cls = None; sg = e.sg; label = e.label })
                    s.transcript.Transcript.entries;
              })
            snap.Snapshot.sessions,
          snap.Snapshot.next_id,
          Snapshot.instances snap )
    else Ok ([], 1, Instances.empty)
  in
  let jpath = journal_path dir generation in
  let* records, torn =
    if io.Io.exists jpath then
      match Journal.scan ~io jpath with
      | Ok (records, Journal.Complete) -> Ok (records, None)
      | Ok (records, Journal.Truncated { offset; bytes }) ->
        Ok (records, Some (offset, bytes))
      | Error (`Corrupt (offset, reason)) ->
        Error
          (Printf.sprintf "%s: corrupt record at byte offset %d: %s" jpath
             offset reason)
    else Ok ([], None)
  in
  (* Decode in file order, resolving each instance reference against
     what the generation's files hold before it. *)
  let* events, instances =
    List.fold_left
      (fun acc (offset, payload) ->
        let* acc, instances = acc in
        let fail what m =
          Error
            (Printf.sprintf "%s: %s at byte offset %d: %s" jpath what offset m)
        in
        match Event.of_string payload with
        | Error m -> fail "undecodable event" m
        | Ok ev -> (
          match Instances.read_event instances ev with
          | Ok (ev, instances) -> Ok ((offset, ev) :: acc, instances)
          | Error m -> fail "unresolved event" m))
      (Ok ([], instances)) records
  in
  let events = List.rev events in
  let* sessions, next_id =
    apply_events base ~next_id ~file:jpath events
  in
  Ok
    {
      generation;
      next_id;
      sessions;
      journal_path = jpath;
      journal_records = List.length records;
      torn;
      instances;
    }
