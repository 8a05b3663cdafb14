(* Golden bytes for every tagged message the system persists or sends:
   all requests, responses, error kinds and instance-source kinds of
   Jim_api.Protocol, every journal Event and every router log entry.

   The encoded bytes are load-bearing beyond the wire: a source's
   encoding keys the instance catalog and the router's fingerprint memo,
   and the same encodings are sealed into checksummed snapshots and
   journals.  A round-trip property cannot catch a change that still
   round-trips, so each constructor is pinned to one literal line here.

   Journal events and router log entries are positional text lines, not
   JSON: each is pinned the same way, and a line with any token dropped
   or cut short must be refused.  The JSON lines journals held before
   are kept as decode-only cases that must decode to the same values.

   For every JSON line the suite also drops each top-level field in turn
   and checks the decoder names it ("missing field ..."), except for the
   fields documented as absent-or-null.  The never-raise properties feed
   every decoder arbitrary bytes and mutated golden lines: hostile input
   must come back as [Error], never as an exception. *)

module Pr = Jim_api.Protocol
module Json = Jim_api.Json
module Event = Jim_store.Event
module Snapshot = Jim_store.Snapshot
module Crc32 = Jim_store.Crc32
module Rlog = Jim_shard.Rlog
module P = Jim_partition.Partition
open Jim_core

let part s = match P.of_string s with Ok p -> p | Error e -> failwith e
let q cls row sg = { Pr.cls; row; sg = part sg }

(* ------------------------------------------------------------------ *)
(* The golden lines                                                    *)

let synthetic =
  Pr.Synthetic { n_attrs = 5; n_tuples = 40; domain = 6; goal_rank = 2; seed = 11 }

let requests =
  [
    ( Pr.Start_session
        { source = Pr.Builtin "flights"; strategy = "lookahead-entropy"; seed = 7 },
      {|{"jim":1,"req":"start_session","source":{"kind":"builtin","name":"flights"},"strategy":"lookahead-entropy","seed":7}|}
    );
    (Pr.Get_question { session = 3 }, {|{"jim":1,"req":"get_question","session":3}|});
    ( Pr.Top_questions { session = 3; k = 2 },
      {|{"jim":1,"req":"top_questions","session":3,"k":2}|} );
    ( Pr.Answer { session = 3; cls = 1; label = State.Pos },
      {|{"jim":1,"req":"answer","session":3,"cls":1,"label":"+"}|} );
    (Pr.Undo { session = 3 }, {|{"jim":1,"req":"undo","session":3}|});
    ( Pr.Explain { session = 3; cls = 2 },
      {|{"jim":1,"req":"explain","session":3,"cls":2}|} );
    (Pr.Result { session = 3 }, {|{"jim":1,"req":"result","session":3}|});
    (Pr.Stats { session = 3 }, {|{"jim":1,"req":"stats","session":3}|});
    ( Pr.Get_transcript { session = 3 },
      {|{"jim":1,"req":"get_transcript","session":3}|} );
    (Pr.End_session { session = 3 }, {|{"jim":1,"req":"end_session","session":3}|});
    ( Pr.Register_instance { source = Pr.Csv_inline "a,b\n1,\"x\"\n" },
      {|{"jim":1,"req":"register_instance","source":{"kind":"csv","text":"a,b\n1,\"x\"\n"}}|}
    );
    ( Pr.Register_instance { source = Pr.Catalog "0a7f33c1" },
      {|{"jim":1,"req":"register_instance","source":{"kind":"catalog","fingerprint":"0a7f33c1"}}|}
    );
    (Pr.Catalog_stats, {|{"jim":1,"req":"catalog_stats"}|});
    ( Pr.Start_pinned { session = 9; source = synthetic; strategy = "random"; seed = 4 },
      {|{"jim":1,"req":"start_pinned","session":9,"source":{"kind":"synthetic","n_attrs":5,"n_tuples":40,"domain":6,"goal_rank":2,"seed":11},"strategy":"random","seed":4}|}
    );
    ( Pr.Repl_install { gen = 2; snapshot = Some "jim-snapshot 1\nnext-id 1\n" },
      {|{"jim":1,"req":"repl_install","gen":2,"snapshot":"jim-snapshot 1\nnext-id 1\n"}|}
    );
    ( Pr.Repl_install { gen = 0; snapshot = None },
      {|{"jim":1,"req":"repl_install","gen":0,"snapshot":null}|} );
    (Pr.Repl_rotate { gen = 3 }, {|{"jim":1,"req":"repl_rotate","gen":3}|});
    ( Pr.Repl_batch { records = [ "JREC 1"; "q\"\000" ] },
      {|{"jim":1,"req":"repl_batch","records":["JREC 1","q\"\u0000"]}|} );
    (Pr.Repl_status, {|{"jim":1,"req":"repl_status"}|});
    (Pr.Promote, {|{"jim":1,"req":"promote"}|});
    (Pr.Ring_status, {|{"jim":1,"req":"ring_status"}|});
    ( Pr.Labeler_attach { session = 4 },
      {|{"jim":1,"req":"labeler_attach","session":4}|} );
    ( Pr.Labeler_poll { session = 4; labeler = 2 },
      {|{"jim":1,"req":"labeler_poll","session":4,"labeler":2}|} );
    ( Pr.Vote { session = 4; labeler = 2; round = 5; label = State.Neg },
      {|{"jim":1,"req":"vote","session":4,"labeler":2,"round":5,"label":"-"}|} );
    (Pr.Crowd_stats { session = 4 }, {|{"jim":1,"req":"crowd_stats","session":4}|});
  ]

let failed e = Pr.Failed e

let responses =
  [
    ( Pr.Started
        { session = 3; arity = 5; classes = 12; tuples = 20; strategy = "lookahead-entropy" },
      {|{"jim":1,"resp":"started","session":3,"arity":5,"classes":12,"tuples":20,"strategy":"lookahead-entropy"}|}
    );
    ( Pr.Question (Some (q 4 7 "{0,2}{1}")),
      {|{"jim":1,"resp":"question","question":{"cls":4,"row":7,"sg":"{0,2}{1}"}}|} );
    (Pr.Question None, {|{"jim":1,"resp":"question","question":null}|});
    ( Pr.Questions [ q 1 2 "{0}{1}"; q 3 0 "{0,1}" ],
      {|{"jim":1,"resp":"questions","questions":[{"cls":1,"row":2,"sg":"{0}{1}"},{"cls":3,"row":0,"sg":"{0,1}"}]}|}
    );
    ( Pr.Answered { finished = false; asked = 2; decided_classes = 5; decided_tuples = 9 },
      {|{"jim":1,"resp":"answered","finished":false,"asked":2,"decided_classes":5,"decided_tuples":9}|}
    );
    (Pr.Undone { asked = 1 }, {|{"jim":1,"resp":"undone","asked":1}|});
    ( Pr.Explanation { cls = 2; status = State.Informative; text = "why\tnot" },
      {|{"jim":1,"resp":"explanation","cls":2,"status":"?","text":"why\tnot"}|} );
    ( Pr.Outcome
        {
          Session.query = part "{0,2}{1}";
          interactions = 1;
          contradiction = false;
          events =
            [
              {
                Session.step = 1;
                cls = 0;
                row = 3;
                sg = part "{0,2}{1}";
                label = State.Pos;
                decided_after = 4;
                tuples_decided_after = 8;
                vs_after = 2.5;
              };
            ];
        },
      {|{"jim":1,"resp":"outcome","outcome":{"query":"{0,2}{1}","interactions":1,"contradiction":false,"events":[{"step":1,"cls":0,"row":3,"sg":"{0,2}{1}","label":"+","decided_after":4,"tuples_decided_after":8,"vs_after":2.5}]}}|}
    );
    ( Pr.Session_stats
        {
          labeled = 2;
          auto_determined = 3;
          still_informative = 4;
          total = 9;
          version_space = Float.infinity;
          scoring =
            {
              Metrics.meets = 10;
              classify_calls = 11;
              cache_hits = 12;
              cache_misses = 13;
              picks = 2;
              pick_time_ns = 1500;
              last_pick_ns = 700;
            };
        },
      {|{"jim":1,"resp":"stats","labeled":2,"auto_determined":3,"still_informative":4,"total":9,"version_space":"Infinity","scoring":{"meets":10,"classify_calls":11,"cache_hits":12,"cache_misses":13,"picks":2,"pick_time_ns":1500,"last_pick_ns":700}}|}
    );
    ( Pr.Transcript_text { text = "jim-transcript 1\narity 2\n" },
      {|{"jim":1,"resp":"transcript","text":"jim-transcript 1\narity 2\n"}|} );
    ( Pr.Registered { fingerprint = "0a7f33c1"; arity = 3; classes = 4; tuples = 5 },
      {|{"jim":1,"resp":"registered","fingerprint":"0a7f33c1","arity":3,"classes":4,"tuples":5}|}
    );
    ( Pr.Catalog_info
        {
          entries = 1;
          bytes = 2;
          pinned = 3;
          hits = 4;
          misses = 5;
          evictions = 6;
          fingerprints = 7;
          derivations = 8;
        },
      {|{"jim":1,"resp":"catalog_stats","entries":1,"bytes":2,"pinned":3,"hits":4,"misses":5,"evictions":6,"fingerprints":7,"derivations":8}|}
    );
    (Pr.Repl_ok { gen = 2; records = 17 }, {|{"jim":1,"resp":"repl_ok","gen":2,"records":17}|});
    ( Pr.Repl_lag { records = 3; bytes = 420 },
      {|{"jim":1,"resp":"repl_lag","records":3,"bytes":420}|} );
    ( Pr.Promoted { sessions = 6; generation = 2 },
      {|{"jim":1,"resp":"promoted","sessions":6,"generation":2}|} );
    ( Pr.Ring_info
        {
          shards =
            [
              { shard = "one"; promoted = false; lag = Some (3, 420) };
              { shard = "two"; promoted = true; lag = None };
            ];
          sessions = 8;
        },
      {|{"jim":1,"resp":"ring_status","shards":[{"name":"one","promoted":false,"lag_records":3,"lag_bytes":420},{"name":"two","promoted":true}],"sessions":8}|}
    );
    ( Pr.Labeler_attached { labeler = 2; votes = 5 },
      {|{"jim":1,"resp":"labeler_attached","labeler":2,"votes":5}|} );
    ( Pr.Crowd_question { round = 3; question = Some (q 1 0 "{0}{1,2}") },
      {|{"jim":1,"resp":"crowd_question","round":3,"question":{"cls":1,"row":0,"sg":"{0}{1,2}"}}|}
    );
    ( Pr.Crowd_question { round = 4; question = None },
      {|{"jim":1,"resp":"crowd_question","round":4,"question":null}|} );
    ( Pr.Vote_ok { round = 3; counted = true; outcome = Some State.Neg },
      {|{"jim":1,"resp":"vote_ok","round":3,"counted":true,"outcome":"-"}|} );
    ( Pr.Vote_ok { round = 3; counted = false; outcome = None },
      {|{"jim":1,"resp":"vote_ok","round":3,"counted":false,"outcome":null}|} );
    ( Pr.Crowd_info
        {
          labelers = 5;
          votes = 5;
          weighted = true;
          rounds = 7;
          paid_labels = 35;
          majority_flips = 1;
          timeouts = 2;
          re_asks = 0;
        },
      {|{"jim":1,"resp":"crowd_stats","labelers":5,"votes":5,"weighted":true,"rounds":7,"paid_labels":35,"majority_flips":1,"timeouts":2,"re_asks":0}|}
    );
    (Pr.Ended, {|{"jim":1,"resp":"ended"}|});
    ( failed (Pr.Bad_request "missing field \"x\""),
      {|{"jim":1,"resp":"error","error":{"kind":"bad_request","message":"missing field \"x\""}}|}
    );
    ( failed (Pr.Unknown_session 42),
      {|{"jim":1,"resp":"error","error":{"kind":"unknown_session","session":42}}|} );
    ( failed (Pr.Unknown_strategy "no such strategy"),
      {|{"jim":1,"resp":"error","error":{"kind":"unknown_strategy","message":"no such strategy"}}|}
    );
    ( failed (Pr.Bad_source "bad csv"),
      {|{"jim":1,"resp":"error","error":{"kind":"bad_source","message":"bad csv"}}|} );
    ( failed (Pr.Unknown_instance "deadbeef"),
      {|{"jim":1,"resp":"error","error":{"kind":"unknown_instance","fingerprint":"deadbeef"}}|}
    );
    ( failed (Pr.Engine Session.Contradiction),
      {|{"jim":1,"resp":"error","error":{"kind":"engine","error":"contradiction","message":"the answer contradicts the earlier labels (no join predicate is consistent with all of them)"}}|}
    );
    ( failed (Pr.Engine Session.Nothing_to_undo),
      {|{"jim":1,"resp":"error","error":{"kind":"engine","error":"nothing_to_undo","message":"nothing to undo"}}|}
    );
    ( failed (Pr.Server_busy { active = 64; max = 64 }),
      {|{"jim":1,"resp":"error","error":{"kind":"server_busy","active":64,"max":64}}|} );
    ( failed (Pr.Unsupported_version 9),
      {|{"jim":1,"resp":"error","error":{"kind":"unsupported_version","version":9}}|} );
    ( failed (Pr.Shard_unavailable "s0 down"),
      {|{"jim":1,"resp":"error","error":{"kind":"shard_unavailable","message":"s0 down"}}|}
    );
    ( failed (Pr.Unknown_labeler 7),
      {|{"jim":1,"resp":"error","error":{"kind":"unknown_labeler","labeler":7}}|} );
  ]

let started source =
  Event.Started
    {
      session = 3;
      arity = 5;
      source;
      strategy = "lookahead-entropy";
      seed = 7;
      fingerprint = "9a3c21e0";
    }

let answered =
  Event.Answered { session = 3; cls = 1; sg = part "{0}{1,2}"; label = State.Neg }

let events =
  [
    ( started synthetic,
      {|s 3 5 lookahead-entropy 7 9a3c21e0 {"kind":"synthetic","n_attrs":5,"n_tuples":40,"domain":6,"goal_rank":2,"seed":11}|}
    );
    ( started (Pr.Csv_inline "a,b\r\n1,\"x, y\"\n"),
      {|s 3 5 lookahead-entropy 7 9a3c21e0 {"kind":"csv","text":"a,b\r\n1,\"x, y\"\n"}|} );
    (answered, {|a 3 1 - {0}{1,2}|});
    (Event.Undone { session = 3 }, {|u 3|});
    (Event.Ended { session = 3 }, {|e 3|});
  ]

let parent_events =
  [
    ( started synthetic,
      {|{"ev":"start","session":3,"arity":5,"source":{"kind":"synthetic","n_attrs":5,"n_tuples":40,"domain":6,"goal_rank":2,"seed":11},"strategy":"lookahead-entropy","seed":7,"fp":"9a3c21e0"}|}
    );
    (answered, {|{"ev":"answer","session":3,"cls":1,"sg":"{0}{1,2}","label":"-"}|});
    (Event.Undone { session = 3 }, {|{"ev":"undo","session":3}|});
    (Event.Ended { session = 3 }, {|{"ev":"end","session":3}|});
  ]

let rlog =
  [
    (Rlog.Member_added "one", {|a one|});
    (Rlog.Member_removed "two", {|d two|});
    (Rlog.Placed { session = 12; shard = "one" }, {|p 12 one|});
    (Rlog.Released { session = 12 }, {|r 12|});
    (Rlog.Failed_over { shard = "one" }, {|f one|});
  ]

let parent_rlog =
  [
    (Rlog.Member_added "one", {|{"rl":"add","shard":"one"}|});
    (Rlog.Member_removed "two", {|{"rl":"remove","shard":"two"}|});
    ( Rlog.Placed { session = 12; shard = "one" },
      {|{"rl":"place","session":12,"shard":"one"}|} );
    (Rlog.Released { session = 12 }, {|{"rl":"release","session":12}|});
    (Rlog.Failed_over { shard = "one" }, {|{"rl":"failover","shard":"one"}|});
  ]

(* ------------------------------------------------------------------ *)
(* Encode, decode, and drop each top-level field                       *)

type family = {
  name : string;
  lines : string list;
  json_lines : string list;
      (** the JSON lines the dropped-field check runs on: the golden
          lines, or for a positional family the older JSON lines *)
  positional : bool;
  refused : string list;  (** more lines a positional decoder refuses *)
  check_encode : unit -> unit;
  check_parent : unit -> unit;
      (** each older JSON line decodes to its value *)
  reencode : string -> (string, string) result;
      (** decode, then encode again; [Error] carries the error text *)
  missing : string -> string -> bool;
      (** [missing field err]: does [err] report [field] as missing? *)
  optional : string list;  (** top-level fields a decoder may lack *)
}

let family name ?(optional = []) ?parent ?(refused = []) ~encode ~decode ~error ~missing
    pairs =
  let reencode s =
    match decode s with Ok v -> Ok (encode v) | Error e -> Error (error e)
  in
  let parent_pairs = Option.value parent ~default:[] in
  {
    name;
    lines = List.map snd pairs;
    json_lines = List.map snd (if parent = None then pairs else parent_pairs);
    positional = parent <> None;
    refused;
    check_encode =
      (fun () ->
        List.iter
          (fun (v, lit) -> Alcotest.(check string) "encoded bytes" lit (encode v))
          pairs);
    check_parent =
      (fun () ->
        List.iter
          (fun (v, json) ->
            match reencode json with
            | Ok s -> Alcotest.(check string) ("decoded " ^ json) (encode v) s
            | Error e -> Alcotest.failf "%s: %s" json e)
          parent_pairs);
    reencode;
    missing;
    optional;
  }

let missing_field prefix field err = err = prefix ^ Printf.sprintf "missing field %S" field

let families =
  [
    family "request" ~optional:[ "snapshot" ] ~encode:Pr.request_to_string
      ~decode:Pr.request_of_string ~error:Pr.error_to_string
      ~missing:(missing_field "bad request: ") requests;
    family "response" ~encode:Pr.response_to_string ~decode:Pr.response_of_string
      ~error:Pr.error_to_string ~missing:(missing_field "bad request: ") responses;
    family "event" ~parent:parent_events
      ~refused:
        [ "a 3 1 - "; "a 3 1 x {0}"; "s 3 5 lookahead-entropy 7 9a3c21e0 "; "u 3 4" ]
      ~encode:Event.to_string ~decode:Event.of_string ~error:Fun.id
      ~missing:(missing_field "") events;
    (* The router log's wording of a missing field is not pinned, only
       that it names the field. *)
    family "rlog" ~parent:parent_rlog ~refused:[ "p x one"; "z one"; "r 1 2" ]
      ~encode:Rlog.to_string ~decode:Rlog.of_string ~error:Fun.id
      ~missing:(fun field err ->
        String.ends_with ~suffix:(Printf.sprintf " %S" field) err
        && List.mem "missing" (String.split_on_char ' ' err))
      rlog;
  ]

let check_decode f () =
  List.iter
    (fun line ->
      match f.reencode line with
      | Ok s -> Alcotest.(check string) "re-encoded bytes" line s
      | Error e -> Alcotest.failf "%s: %s" line e)
    f.lines

let top_level_fields line =
  match Json.of_string line with
  | Ok (Json.Obj fields) -> fields
  | _ -> Alcotest.failf "golden line is not an object: %s" line

let check_drops f () =
  List.iter
    (fun line ->
      let fields = top_level_fields line in
      List.iter
        (fun (k, _) ->
          let dropped =
            Json.to_string (Json.Obj (List.filter (fun (k', _) -> k' <> k) fields))
          in
          match f.reencode dropped with
          | Ok _ when List.mem k f.optional -> ()
          | Ok s -> Alcotest.failf "dropping %S accepted: %s" k s
          | Error e when List.mem k f.optional ->
            Alcotest.failf "dropping optional %S refused: %s" k e
          | Error e ->
            if not (f.missing k e) then
              Alcotest.failf "dropping %S from %s: unexpected error %S" k line e)
        fields)
    f.json_lines

(* A positional line with any one space-separated token dropped, or cut
   after any token, is refused, and so is each of the family's other
   malformed lines. *)
let check_tokens f () =
  let refused what line damaged =
    match f.reencode damaged with
    | Ok s -> Alcotest.failf "%s of %S accepted: %S" what line s
    | Error _ -> ()
  in
  List.iter (fun line -> refused "malformed" line line) f.refused;
  List.iter
    (fun line ->
      let tokens = String.split_on_char ' ' line in
      let refused what damaged = refused what line damaged in
      List.iteri
        (fun i _ ->
          refused
            (Printf.sprintf "token %d dropped" i)
            (String.concat " " (List.filteri (fun j _ -> j <> i) tokens));
          refused
            (Printf.sprintf "cut before token %d" i)
            (String.concat " " (List.filteri (fun j _ -> j < i) tokens)))
        tokens)
    f.lines

(* ------------------------------------------------------------------ *)
(* Hostile bytes never raise                                           *)

let golden_lines =
  List.concat_map (fun f -> f.lines @ if f.positional then f.json_lines else []) families

let golden_snapshot =
  Snapshot.to_string
    {
      Snapshot.next_id = 4;
      sessions =
        [
          {
            Snapshot.id = 3;
            source = synthetic;
            strategy = "lookahead-entropy";
            seed = 7;
            fingerprint = "9a3c21e0";
            transcript =
              {
                Transcript.arity = 3;
                entries =
                  [
                    { Transcript.sg = part "{0}{1,2}"; label = State.Neg };
                    { Transcript.sg = part "{0,1,2}"; label = State.Pos };
                  ];
                result = None;
              };
          };
        ];
    }

let decoders =
  [
    ("request_of_string", fun s -> Result.is_ok (Pr.request_of_string s));
    ("response_of_string", fun s -> Result.is_ok (Pr.response_of_string s));
    ("Event.of_string", fun s -> Result.is_ok (Event.of_string s));
    ("Rlog.of_string", fun s -> Result.is_ok (Rlog.of_string s));
    ("Snapshot.of_string", fun s -> Result.is_ok (Snapshot.of_string s));
  ]

let never_raises s =
  List.for_all
    (fun (name, decode) ->
      match decode s with
      | _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string e))
    decoders

let pick rs l = List.nth l (Random.State.int rs (List.length l))

(* Bytes that matter to the JSON grammar, plus a NUL and a high byte. *)
let interesting = "{}[],:\"\\0123456789-+.eEtrufalsn \000\255"

let byte_mutation rs s =
  let n = String.length s in
  let i = Random.State.int rs (n + 1) in
  let j = min n (i + Random.State.int rs 8) in
  match Random.State.int rs 6 with
  | 0 when n > 0 ->
    let i = min i (n - 1) in
    String.mapi (fun k c -> if k = i then Char.chr (Random.State.int rs 256) else c) s
  | 1 ->
    String.sub s 0 i
    ^ String.make 1 interesting.[Random.State.int rs (String.length interesting)]
    ^ String.sub s i (n - i)
  | 2 -> String.sub s 0 i ^ String.sub s j (n - j)
  | 3 -> String.sub s 0 j ^ String.sub s i (n - i)
  | 4 -> String.sub s 0 i
  | _ ->
    let other = pick rs golden_lines in
    let k = Random.State.int rs (String.length other + 1) in
    String.sub s 0 i ^ String.sub other k (String.length other - k)

let random_value rs =
  pick rs
    Json.
      [
        Null; Bool true; Int 0; Int (-1); Int max_int; Float 1.5; Float Float.nan;
        String ""; String "+"; String "{0}{1}"; String "start"; List []; Obj [];
        List [ Int 1 ]; Obj [ ("kind", String "builtin") ];
      ]

(* Structural damage: drop, rename, duplicate or retype one member
   somewhere in the tree, so decoders see well-formed JSON of the wrong
   shape, not only parse errors. *)
let rec json_mutation rs v =
  match v with
  | Json.Obj (_ :: _ as fields) -> (
    let k = Random.State.int rs (List.length fields) in
    let key, value = List.nth fields k in
    let others = List.filteri (fun i _ -> i <> k) fields in
    match Random.State.int rs 5 with
    | 0 -> Json.Obj others
    | 1 -> Json.Obj ((key ^ "x", value) :: others)
    | 2 -> Json.Obj ((key, random_value rs) :: fields)
    | 3 -> Json.Obj (List.mapi (fun i f -> if i = k then (key, random_value rs) else f) fields)
    | _ -> Json.Obj (List.mapi (fun i f -> if i = k then (key, json_mutation rs value) else f) fields))
  | Json.List (_ :: _ as items) ->
    let k = Random.State.int rs (List.length items) in
    Json.List
      (List.mapi (fun i x -> if i = k then json_mutation rs x else x) items)
  | _ -> random_value rs

let mutate rs s =
  let rec go n s =
    if n = 0 then s
    else
      let s =
        match (Random.State.bool rs, Json.of_string s) with
        | true, Ok v -> Json.to_string (json_mutation rs v)
        | _ -> byte_mutation rs s
      in
      go (n - 1) s
  in
  go (1 + Random.State.int rs 3) s

let reseal body = body ^ "checksum " ^ Crc32.to_hex (Crc32.digest_string body) ^ "\n"

(* Mutate the snapshot body and (mostly) re-seal it, so the damage gets
   past the checksum to the line and transcript parsers. *)
let mutate_snapshot rs =
  let s = golden_snapshot in
  let body = String.sub s 0 (String.rindex_from s (String.length s - 2) '\n' + 1) in
  let lines = String.split_on_char '\n' body in
  let k = Random.State.int rs (List.length lines) in
  let lines = List.mapi (fun i l -> if i = k then mutate rs l else l) lines in
  let body = String.concat "\n" lines in
  if Random.State.int rs 4 = 0 then byte_mutation rs (reseal body) else reseal body

let qtest count name gen =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name (QCheck.make ~print:String.escaped gen) never_raises)

let prop_arbitrary = qtest 2000 "arbitrary bytes never raise" QCheck.Gen.string

let prop_mutated =
  qtest 5000 "mutated golden lines never raise" (fun rs -> mutate rs (pick rs golden_lines))

let prop_snapshot = qtest 2000 "mutated snapshots never raise" mutate_snapshot

(* ------------------------------------------------------------------ *)
(* Positional lines round-trip                                         *)

(* Inline CSV text with spaces, quotes, commas, CR/LF and arbitrary
   bytes; ints at the edges; shard names with spaces. *)
let gen_text =
  QCheck.Gen.(
    string_size (int_bound 40)
      ~gen:
        (frequency
           [ (3, oneofl [ ' '; '"'; ','; '\r'; '\n'; '\\' ]); (6, printable); (1, char) ]))

let gen_int =
  QCheck.Gen.(oneof [ int; oneofl [ 0; -1; max_int; min_int ]; small_signed_int ])

let gen_token =
  QCheck.Gen.(
    string_size (int_range 1 12)
      ~gen:(oneofl (List.of_seq (String.to_seq "abcdef0123456789-"))))

let gen_source =
  QCheck.Gen.(
    oneof
      [
        map (fun t -> Pr.Csv_inline t) gen_text;
        map (fun t -> Pr.Builtin t) gen_text;
        map (fun t -> Pr.Catalog t) gen_token;
        map
          (fun (n_attrs, n_tuples, seed) ->
            Pr.Synthetic { n_attrs; n_tuples; domain = 6; goal_rank = 2; seed })
          (triple small_nat small_nat gen_int);
      ])

let gen_partition =
  QCheck.Gen.(
    int_range 1 9 >>= fun n ->
    map
      (fun reps -> P.of_rep_array (Array.of_list reps))
      (flatten_l (List.init n (fun i -> int_bound i))))

let gen_event =
  QCheck.Gen.(
    oneof
      [
        map
          (fun ((session, arity, seed), (strategy, fingerprint, source)) ->
            Event.Started { session; arity; source; strategy; seed; fingerprint })
          (pair (triple gen_int small_nat gen_int) (triple gen_token gen_token gen_source));
        map
          (fun ((session, cls), (sg, pos)) ->
            Event.Answered
              { session; cls; sg; label = (if pos then State.Pos else State.Neg) })
          (pair (pair gen_int gen_int) (pair gen_partition bool));
        map (fun session -> Event.Undone { session }) gen_int;
        map (fun session -> Event.Ended { session }) gen_int;
      ])

let gen_rlog =
  let name =
    QCheck.Gen.(string_size (int_bound 16) ~gen:(map Char.chr (int_range 32 126)))
  in
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Rlog.Member_added s) name;
        map (fun s -> Rlog.Member_removed s) name;
        map (fun (session, shard) -> Rlog.Placed { session; shard }) (pair gen_int name);
        map (fun session -> Rlog.Released { session }) gen_int;
        map (fun shard -> Rlog.Failed_over { shard }) name;
      ])

let roundtrip name ~encode ~decode gen =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name
       (QCheck.make ~print:(fun v -> String.escaped (encode v)) gen)
       (fun v ->
         let line = encode v in
         if String.contains line '\n' then
           QCheck.Test.fail_reportf "newline in %S" line;
         match decode line with
         | Ok v' -> v' = v
         | Error e -> QCheck.Test.fail_reportf "%S: %s" line e))

let prop_event_roundtrip =
  roundtrip "event lines round-trip" ~encode:Event.to_string ~decode:Event.of_string
    gen_event

let prop_rlog_roundtrip =
  roundtrip "rlog lines round-trip" ~encode:Rlog.to_string ~decode:Rlog.of_string
    gen_rlog

(* A shard from before the scorer memo went pick-scoped still sends
   [memo_rows], [memo_bytes] and [memo_evictions] in its catalog_stats
   reply; unknown members are ignored, so a newer router decodes it to
   the same counters. *)
let test_old_catalog_stats () =
  let old =
    {|{"jim":1,"resp":"catalog_stats","entries":1,"bytes":2,"pinned":3,"hits":4,"misses":5,"evictions":6,"fingerprints":7,"derivations":8,"memo_rows":9,"memo_bytes":10,"memo_evictions":11}|}
  in
  match Pr.response_of_string old with
  | Ok (Pr.Catalog_info c) ->
    Alcotest.(check (list int))
      "counters" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      [ c.entries; c.bytes; c.pinned; c.hits; c.misses; c.evictions;
        c.fingerprints; c.derivations ]
  | Ok other -> Alcotest.failf "decoded as %s" (Pr.response_to_string other)
  | Error e -> Alcotest.failf "refused: %s" (Pr.error_to_string e)

let () =
  Alcotest.run "golden"
    [
      ( "bytes",
        List.concat_map
          (fun f ->
            [
              Alcotest.test_case (f.name ^ " encodes to golden bytes") `Quick f.check_encode;
              Alcotest.test_case (f.name ^ " decodes and re-encodes") `Quick (check_decode f);
              Alcotest.test_case (f.name ^ " names each dropped field") `Quick (check_drops f);
            ]
            @
            if f.positional then
              [
                Alcotest.test_case (f.name ^ " decodes older JSON lines") `Quick
                  f.check_parent;
                Alcotest.test_case (f.name ^ " refuses dropped or cut tokens") `Quick
                  (check_tokens f);
              ]
            else [])
          families );
      ("round trip", [ prop_event_roundtrip; prop_rlog_roundtrip ]);
      ("never raise", [ prop_arbitrary; prop_mutated; prop_snapshot ]);
      ( "compat",
        [
          Alcotest.test_case "an old shard's catalog_stats decodes" `Quick
            test_old_catalog_stats;
        ] );
    ]
