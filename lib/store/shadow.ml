module P = Jim_api.Protocol
module Transcript = Jim_core.Transcript

type entry = {
  e_arity : int;
  e_source : P.instance_source;
  e_strategy : string;
  e_seed : int;
  e_fingerprint : string;
  mutable e_entries_rev : Transcript.entry list;
}

type t = {
  sessions : (int, entry) Hashtbl.t;
  mutable next_id : int;
  mutable instances : Instances.t;
}

let create () =
  { sessions = Hashtbl.create 16; next_id = 1; instances = Instances.empty }

let next_id t = t.next_id
let session_count t = Hashtbl.length t.sessions
let instances t = t.instances
let compact t ev = Instances.compact_event t.instances ev

let apply t = function
  | Event.Started { session; arity; source; strategy; seed; fingerprint } ->
    t.instances <- Instances.hold t.instances ~fingerprint source;
    Hashtbl.replace t.sessions session
      {
        e_arity = arity;
        e_source = source;
        e_strategy = strategy;
        e_seed = seed;
        e_fingerprint = fingerprint;
        e_entries_rev = [];
      };
    t.next_id <- max t.next_id (session + 1)
  | Event.Answered { session; sg; label; _ } -> (
    match Hashtbl.find_opt t.sessions session with
    | None -> ()
    | Some s -> s.e_entries_rev <- { Transcript.sg; label } :: s.e_entries_rev)
  | Event.Undone { session } -> (
    match Hashtbl.find_opt t.sessions session with
    | None -> ()
    | Some s -> (
      match s.e_entries_rev with
      | [] -> ()
      | _ :: tl -> s.e_entries_rev <- tl))
  | Event.Ended { session } -> Hashtbl.remove t.sessions session

let seed t ~next_id ~instances sessions =
  Hashtbl.reset t.sessions;
  t.next_id <- next_id;
  t.instances <- instances;
  List.iter
    (fun (s : Snapshot.session) ->
      Hashtbl.replace t.sessions s.Snapshot.id
        {
          e_arity = s.transcript.Transcript.arity;
          e_source = s.source;
          e_strategy = s.strategy;
          e_seed = s.seed;
          e_fingerprint = s.fingerprint;
          e_entries_rev = List.rev s.transcript.Transcript.entries;
        };
      t.next_id <- max t.next_id (s.Snapshot.id + 1))
    sessions

let snapshot t =
  let sessions =
    Hashtbl.fold
      (fun id s acc ->
        {
          Snapshot.id;
          source = s.e_source;
          strategy = s.e_strategy;
          seed = s.e_seed;
          fingerprint = s.e_fingerprint;
          transcript =
            {
              Transcript.arity = s.e_arity;
              entries = List.rev s.e_entries_rev;
              result = None;
            };
        }
        :: acc)
      t.sessions []
    |> List.sort (fun a b -> compare a.Snapshot.id b.Snapshot.id)
  in
  { Snapshot.next_id = t.next_id; sessions }

let rotated t snap = t.instances <- Snapshot.instances snap
