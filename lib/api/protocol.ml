module Partition = Jim_partition.Partition
open Jim_core

let version = 1

type instance_source =
  | Builtin of string
  | Synthetic of {
      n_attrs : int;
      n_tuples : int;
      domain : int;
      goal_rank : int;
      seed : int;
    }
  | Csv_inline of string
  | Catalog of string

type question = { cls : int; row : int; sg : Partition.t }

type request =
  | Start_session of { source : instance_source; strategy : string; seed : int }
  | Get_question of { session : int }
  | Top_questions of { session : int; k : int }
  | Answer of { session : int; cls : int; label : State.label }
  | Undo of { session : int }
  | Explain of { session : int; cls : int }
  | Result of { session : int }
  | Stats of { session : int }
  | Get_transcript of { session : int }
  | End_session of { session : int }
  | Register_instance of { source : instance_source }
  | Catalog_stats
  | Start_pinned of {
      session : int;
      source : instance_source;
      strategy : string;
      seed : int;
    }
  | Repl_install of { gen : int; snapshot : string option }
  | Repl_rotate of { gen : int }
  | Repl_batch of { records : string list }
  | Repl_status
  | Promote
  | Ring_status
  | Labeler_attach of { session : int }
  | Labeler_poll of { session : int; labeler : int }
  | Vote of { session : int; labeler : int; round : int; label : State.label }
  | Crowd_stats of { session : int }

type error =
  | Bad_request of string
  | Unknown_session of int
  | Unknown_strategy of string
  | Bad_source of string
  | Unknown_instance of string
  | Engine of Session.error
  | Server_busy of { active : int; max : int }
  | Unsupported_version of int
  | Shard_unavailable of string
  | Unknown_labeler of int

type crowd_stats = {
  labelers : int;
  votes : int;  (* quorum size K *)
  weighted : bool;
  rounds : int;  (* closed rounds = aggregates journaled *)
  paid_labels : int;
  majority_flips : int;
  timeouts : int;
  re_asks : int;
}

type catalog_stats = {
  entries : int;
  bytes : int;
  pinned : int;
  hits : int;
  misses : int;
  evictions : int;
  fingerprints : int;
  derivations : int;
}

type shard_status = {
  shard : string;
  promoted : bool;
  lag : (int * int) option;  (* replication lag: (records, bytes) *)
}

type session_stats = {
  labeled : int;
  auto_determined : int;
  still_informative : int;
  total : int;
  version_space : float;
  scoring : Metrics.snapshot;
}

type response =
  | Started of {
      session : int;
      arity : int;
      classes : int;
      tuples : int;
      strategy : string;
    }
  | Question of question option
  | Questions of question list
  | Answered of {
      finished : bool;
      asked : int;
      decided_classes : int;
      decided_tuples : int;
    }
  | Undone of { asked : int }
  | Explanation of { cls : int; status : State.status; text : string }
  | Outcome of Session.outcome
  | Session_stats of session_stats
  | Transcript_text of { text : string }
  | Registered of {
      fingerprint : string;
      arity : int;
      classes : int;
      tuples : int;
    }
  | Catalog_info of catalog_stats
  | Repl_ok of { gen : int; records : int }
  | Repl_lag of { records : int; bytes : int }
  | Promoted of { sessions : int; generation : int }
  | Ring_info of { shards : shard_status list; sessions : int }
  | Labeler_attached of { labeler : int; votes : int }
  | Crowd_question of { round : int; question : question option }
  | Vote_ok of { round : int; counted : bool; outcome : State.label option }
  | Crowd_info of crowd_stats
  | Ended
  | Failed of error

let error_to_string = function
  | Bad_request m -> "bad request: " ^ m
  | Unknown_session id -> Printf.sprintf "unknown session %d" id
  | Unknown_strategy m -> m
  | Bad_source m -> "bad instance source: " ^ m
  | Unknown_instance fp -> Printf.sprintf "unknown instance %s" fp
  | Engine e -> Session.error_to_string e
  | Server_busy { active; max } ->
    Printf.sprintf "server busy: %d/%d sessions active" active max
  | Unsupported_version v ->
    Printf.sprintf "unsupported protocol version %d (this server speaks %d)" v
      version
  | Shard_unavailable m -> "shard unavailable: " ^ m
  | Unknown_labeler id -> Printf.sprintf "unknown labeler %d" id

(* ------------------------------------------------------------------ *)
(* Rows: each message once, as its tag and its fields in wire order    *)

open Codec

let label =
  enum {|expected a label "+" or "-", got |}
    [ (State.Pos, "+"); (State.Neg, "-") ]

let status =
  enum {|expected a status "+", "-" or "?", got |}
    [ (State.Certain_pos, "+"); (State.Certain_neg, "-");
      (State.Informative, "?") ]

let partition = conv Partition.to_string Partition.of_string string

let metrics =
  obj
    [ req "meets" int; req "classify_calls" int; req "cache_hits" int;
      req "cache_misses" int; req "picks" int; req "pick_time_ns" int;
      req "last_pick_ns" int ]
    (fun [ meets; classify_calls; cache_hits; cache_misses; picks;
           pick_time_ns; last_pick_ns ] ->
      { Metrics.meets; classify_calls; cache_hits; cache_misses; picks;
        pick_time_ns; last_pick_ns })
    (fun m ->
      [ m.meets; m.classify_calls; m.cache_hits; m.cache_misses; m.picks;
        m.pick_time_ns; m.last_pick_ns ])

let event =
  obj
    [ req "step" int; req "cls" int; req "row" int; req "sg" partition;
      req "label" label; req "decided_after" int;
      req "tuples_decided_after" int; req "vs_after" float ]
    (fun [ step; cls; row; sg; label; decided_after; tuples_decided_after;
           vs_after ] ->
      { Session.step; cls; row; sg; label; decided_after;
        tuples_decided_after; vs_after })
    (fun (e : Session.event) ->
      [ e.step; e.cls; e.row; e.sg; e.label; e.decided_after;
        e.tuples_decided_after; e.vs_after ])

let outcome =
  obj
    [ req "query" partition; req "interactions" int;
      req "contradiction" bool; req "events" (list event) ]
    (fun [ query; interactions; contradiction; events ] ->
      { Session.query; interactions; contradiction; events })
    (fun o -> [ o.query; o.interactions; o.contradiction; o.events ])

let outcome_to_json = to_json outcome

let source =
  variant "kind" "instance source kind"
    [
      case "builtin" [ req "name" string ]
        (fun [ name ] -> Builtin name)
        (function Builtin name -> Some [ name ] | _ -> None);
      case "synthetic"
        [ req "n_attrs" int; req "n_tuples" int; req "domain" int;
          req "goal_rank" int; req "seed" int ]
        (fun [ n_attrs; n_tuples; domain; goal_rank; seed ] ->
          Synthetic { n_attrs; n_tuples; domain; goal_rank; seed })
        (function
          | Synthetic s ->
            Some [ s.n_attrs; s.n_tuples; s.domain; s.goal_rank; s.seed ]
          | _ -> None);
      case "csv" [ req "text" string ]
        (fun [ text ] -> Csv_inline text)
        (function Csv_inline text -> Some [ text ] | _ -> None);
      case "catalog" [ req "fingerprint" string ]
        (fun [ fp ] -> Catalog fp)
        (function Catalog fp -> Some [ fp ] | _ -> None);
    ]

let question =
  obj
    [ req "cls" int; req "row" int; req "sg" partition ]
    (fun [ cls; row; sg ] -> { cls; row; sg })
    (fun q -> [ q.cls; q.row; q.sg ])

let version_field = "jim"

let envelope : (string * Json.t) list =
  [ (version_field, Json.Int version) ]

let request =
  variant ~head:envelope "req" "request"
    [
      case "start_session"
        [ req "source" source; req "strategy" string; req "seed" int ]
        (fun [ source; strategy; seed ] ->
          Start_session { source; strategy; seed })
        (function
          | Start_session r -> Some [ r.source; r.strategy; r.seed ]
          | _ -> None);
      case "get_question" [ req "session" int ]
        (fun [ session ] -> Get_question { session })
        (function Get_question { session } -> Some [ session ] | _ -> None);
      case "top_questions" [ req "session" int; req "k" int ]
        (fun [ session; k ] -> Top_questions { session; k })
        (function
          | Top_questions { session; k } -> Some [ session; k ] | _ -> None);
      case "answer" [ req "session" int; req "cls" int; req "label" label ]
        (fun [ session; cls; label ] -> Answer { session; cls; label })
        (function
          | Answer { session; cls; label } -> Some [ session; cls; label ]
          | _ -> None);
      case "undo" [ req "session" int ]
        (fun [ session ] -> Undo { session })
        (function Undo { session } -> Some [ session ] | _ -> None);
      case "explain" [ req "session" int; req "cls" int ]
        (fun [ session; cls ] -> Explain { session; cls })
        (function
          | Explain { session; cls } -> Some [ session; cls ] | _ -> None);
      case "result" [ req "session" int ]
        (fun [ session ] -> Result { session })
        (function Result { session } -> Some [ session ] | _ -> None);
      case "stats" [ req "session" int ]
        (fun [ session ] -> Stats { session })
        (function Stats { session } -> Some [ session ] | _ -> None);
      case "get_transcript" [ req "session" int ]
        (fun [ session ] -> Get_transcript { session })
        (function Get_transcript { session } -> Some [ session ] | _ -> None);
      case "end_session" [ req "session" int ]
        (fun [ session ] -> End_session { session })
        (function End_session { session } -> Some [ session ] | _ -> None);
      case "register_instance" [ req "source" source ]
        (fun [ source ] -> Register_instance { source })
        (function Register_instance { source } -> Some [ source ] | _ -> None);
      case "catalog_stats" []
        (fun [] -> Catalog_stats)
        (function Catalog_stats -> Some [] | _ -> None);
      case "start_pinned"
        [ req "session" int; req "source" source; req "strategy" string;
          req "seed" int ]
        (fun [ session; source; strategy; seed ] ->
          Start_pinned { session; source; strategy; seed })
        (function
          | Start_pinned r -> Some [ r.session; r.source; r.strategy; r.seed ]
          | _ -> None);
      case "repl_install" [ req "gen" int; opt "snapshot" string ]
        (fun [ gen; snapshot ] -> Repl_install { gen; snapshot })
        (function
          | Repl_install { gen; snapshot } -> Some [ gen; snapshot ]
          | _ -> None);
      case "repl_rotate" [ req "gen" int ]
        (fun [ gen ] -> Repl_rotate { gen })
        (function Repl_rotate { gen } -> Some [ gen ] | _ -> None);
      case "repl_batch" [ req "records" (list string) ]
        (fun [ records ] -> Repl_batch { records })
        (function Repl_batch { records } -> Some [ records ] | _ -> None);
      case "repl_status" []
        (fun [] -> Repl_status)
        (function Repl_status -> Some [] | _ -> None);
      case "promote" []
        (fun [] -> Promote)
        (function Promote -> Some [] | _ -> None);
      case "ring_status" []
        (fun [] -> Ring_status)
        (function Ring_status -> Some [] | _ -> None);
      case "labeler_attach" [ req "session" int ]
        (fun [ session ] -> Labeler_attach { session })
        (function Labeler_attach { session } -> Some [ session ] | _ -> None);
      case "labeler_poll" [ req "session" int; req "labeler" int ]
        (fun [ session; labeler ] -> Labeler_poll { session; labeler })
        (function
          | Labeler_poll { session; labeler } -> Some [ session; labeler ]
          | _ -> None);
      case "vote"
        [ req "session" int; req "labeler" int; req "round" int;
          req "label" label ]
        (fun [ session; labeler; round; label ] ->
          Vote { session; labeler; round; label })
        (function
          | Vote r -> Some [ r.session; r.labeler; r.round; r.label ]
          | _ -> None);
      case "crowd_stats" [ req "session" int ]
        (fun [ session ] -> Crowd_stats { session })
        (function Crowd_stats { session } -> Some [ session ] | _ -> None);
    ]

let session_error =
  enum "unknown engine error "
    [ (Session.Contradiction, "contradiction");
      (Session.Nothing_to_undo, "nothing_to_undo") ]

(* The engine error's "message" is derived from its "error": written for
   readers of the wire, never read back. *)
let error =
  variant "kind" "error kind"
    [
      case "bad_request" [ req "message" string ]
        (fun [ m ] -> Bad_request m)
        (function Bad_request m -> Some [ m ] | _ -> None);
      case "unknown_session" [ req "session" int ]
        (fun [ id ] -> Unknown_session id)
        (function Unknown_session id -> Some [ id ] | _ -> None);
      case "unknown_strategy" [ req "message" string ]
        (fun [ m ] -> Unknown_strategy m)
        (function Unknown_strategy m -> Some [ m ] | _ -> None);
      case "bad_source" [ req "message" string ]
        (fun [ m ] -> Bad_source m)
        (function Bad_source m -> Some [ m ] | _ -> None);
      case "unknown_instance" [ req "fingerprint" string ]
        (fun [ fp ] -> Unknown_instance fp)
        (function Unknown_instance fp -> Some [ fp ] | _ -> None);
      case "engine" [ req "error" session_error; derived "message" string ]
        (fun [ e; _ ] -> Engine e)
        (function
          | Engine e -> Some [ e; Some (Session.error_to_string e) ]
          | _ -> None);
      case "server_busy" [ req "active" int; req "max" int ]
        (fun [ active; max ] -> Server_busy { active; max })
        (function
          | Server_busy { active; max } -> Some [ active; max ] | _ -> None);
      case "unsupported_version" [ req "version" int ]
        (fun [ v ] -> Unsupported_version v)
        (function Unsupported_version v -> Some [ v ] | _ -> None);
      case "shard_unavailable" [ req "message" string ]
        (fun [ m ] -> Shard_unavailable m)
        (function Shard_unavailable m -> Some [ m ] | _ -> None);
      case "unknown_labeler" [ req "labeler" int ]
        (fun [ id ] -> Unknown_labeler id)
        (function Unknown_labeler id -> Some [ id ] | _ -> None);
    ]

(* Lag members are additive: replies from shards without an attached
   standby simply omit them. *)
let shard_status =
  obj
    [ req "name" string; req "promoted" bool;
      pair "lag_records" int "lag_bytes" int ]
    (fun [ shard; promoted; lag ] -> { shard; promoted; lag })
    (fun s -> [ s.shard; s.promoted; s.lag ])

let response =
  variant ~head:envelope "resp" "response"
    [
      case "started"
        [ req "session" int; req "arity" int; req "classes" int;
          req "tuples" int; req "strategy" string ]
        (fun [ session; arity; classes; tuples; strategy ] ->
          Started { session; arity; classes; tuples; strategy })
        (function
          | Started r ->
            Some [ r.session; r.arity; r.classes; r.tuples; r.strategy ]
          | _ -> None);
      case "question" [ req "question" (nullable question) ]
        (fun [ q ] -> Question q)
        (function Question q -> Some [ q ] | _ -> None);
      case "questions" [ req "questions" (list question) ]
        (fun [ qs ] -> Questions qs)
        (function Questions qs -> Some [ qs ] | _ -> None);
      case "answered"
        [ req "finished" bool; req "asked" int; req "decided_classes" int;
          req "decided_tuples" int ]
        (fun [ finished; asked; decided_classes; decided_tuples ] ->
          Answered { finished; asked; decided_classes; decided_tuples })
        (function
          | Answered r ->
            Some [ r.finished; r.asked; r.decided_classes; r.decided_tuples ]
          | _ -> None);
      case "undone" [ req "asked" int ]
        (fun [ asked ] -> Undone { asked })
        (function Undone { asked } -> Some [ asked ] | _ -> None);
      case "explanation"
        [ req "cls" int; req "status" status; req "text" string ]
        (fun [ cls; status; text ] -> Explanation { cls; status; text })
        (function
          | Explanation { cls; status; text } -> Some [ cls; status; text ]
          | _ -> None);
      case "outcome" [ req "outcome" outcome ]
        (fun [ o ] -> Outcome o)
        (function Outcome o -> Some [ o ] | _ -> None);
      case "stats"
        [ req "labeled" int; req "auto_determined" int;
          req "still_informative" int; req "total" int;
          req "version_space" float; req "scoring" metrics ]
        (fun [ labeled; auto_determined; still_informative; total;
               version_space; scoring ] ->
          Session_stats
            { labeled; auto_determined; still_informative; total;
              version_space; scoring })
        (function
          | Session_stats s ->
            Some
              [ s.labeled; s.auto_determined; s.still_informative; s.total;
                s.version_space; s.scoring ]
          | _ -> None);
      case "transcript" [ req "text" string ]
        (fun [ text ] -> Transcript_text { text })
        (function Transcript_text { text } -> Some [ text ] | _ -> None);
      case "registered"
        [ req "fingerprint" string; req "arity" int; req "classes" int;
          req "tuples" int ]
        (fun [ fingerprint; arity; classes; tuples ] ->
          Registered { fingerprint; arity; classes; tuples })
        (function
          | Registered r -> Some [ r.fingerprint; r.arity; r.classes; r.tuples ]
          | _ -> None);
      case "catalog_stats"
        [ req "entries" int; req "bytes" int; req "pinned" int; req "hits" int;
          req "misses" int; req "evictions" int; req "fingerprints" int;
          req "derivations" int ]
        (fun [ entries; bytes; pinned; hits; misses; evictions; fingerprints;
               derivations ] ->
          Catalog_info
            { entries; bytes; pinned; hits; misses; evictions; fingerprints;
              derivations })
        (function
          | Catalog_info c ->
            Some
              [ c.entries; c.bytes; c.pinned; c.hits; c.misses; c.evictions;
                c.fingerprints; c.derivations ]
          | _ -> None);
      case "repl_ok" [ req "gen" int; req "records" int ]
        (fun [ gen; records ] -> Repl_ok { gen; records })
        (function
          | Repl_ok { gen; records } -> Some [ gen; records ] | _ -> None);
      case "repl_lag" [ req "records" int; req "bytes" int ]
        (fun [ records; bytes ] -> Repl_lag { records; bytes })
        (function
          | Repl_lag { records; bytes } -> Some [ records; bytes ] | _ -> None);
      case "promoted" [ req "sessions" int; req "generation" int ]
        (fun [ sessions; generation ] -> Promoted { sessions; generation })
        (function
          | Promoted { sessions; generation } -> Some [ sessions; generation ]
          | _ -> None);
      case "ring_status"
        [ req "shards" (list shard_status); req "sessions" int ]
        (fun [ shards; sessions ] -> Ring_info { shards; sessions })
        (function
          | Ring_info { shards; sessions } -> Some [ shards; sessions ]
          | _ -> None);
      case "labeler_attached" [ req "labeler" int; req "votes" int ]
        (fun [ labeler; votes ] -> Labeler_attached { labeler; votes })
        (function
          | Labeler_attached { labeler; votes } -> Some [ labeler; votes ]
          | _ -> None);
      case "crowd_question"
        [ req "round" int; req "question" (nullable question) ]
        (fun [ round; question ] -> Crowd_question { round; question })
        (function
          | Crowd_question { round; question } -> Some [ round; question ]
          | _ -> None);
      case "vote_ok"
        [ req "round" int; req "counted" bool; req "outcome" (nullable label) ]
        (fun [ round; counted; outcome ] -> Vote_ok { round; counted; outcome })
        (function
          | Vote_ok { round; counted; outcome } ->
            Some [ round; counted; outcome ]
          | _ -> None);
      case "crowd_stats"
        [ req "labelers" int; req "votes" int; req "weighted" bool;
          req "rounds" int; req "paid_labels" int; req "majority_flips" int;
          req "timeouts" int; req "re_asks" int ]
        (fun [ labelers; votes; weighted; rounds; paid_labels; majority_flips;
               timeouts; re_asks ] ->
          Crowd_info
            { labelers; votes; weighted; rounds; paid_labels; majority_flips;
              timeouts; re_asks })
        (function
          | Crowd_info c ->
            Some
              [ c.labelers; c.votes; c.weighted; c.rounds; c.paid_labels;
                c.majority_flips; c.timeouts; c.re_asks ]
          | _ -> None);
      case "ended" [] (fun [] -> Ended) (function Ended -> Some [] | _ -> None);
      case "error" [ req "error" error ]
        (fun [ e ] -> Failed e)
        (function Failed e -> Some [ e ] | _ -> None);
    ]

(* ------------------------------------------------------------------ *)
(* String wrappers                                                     *)

(* The version is checked before the tag is looked up, so a message
   from a newer peer is refused as [Unsupported_version], not as an
   unknown tag. *)
let decode_message codec s =
  match Json.of_string s with
  | Error m -> Error (Bad_request m)
  | Ok v -> (
    match Result.bind (Json.field version_field v) Json.as_int with
    | Error m -> Error (Bad_request m)
    | Ok ver when ver <> version -> Error (Unsupported_version ver)
    | Ok _ -> Result.map_error (fun m -> Bad_request m) (of_json codec v))

let request_to_string = to_string request
let request_of_string = decode_message request
let response_to_string = to_string response
let response_of_string = decode_message response
