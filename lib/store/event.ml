module P = Jim_api.Protocol
module Partition = Jim_partition.Partition
module State = Jim_core.State

type t =
  | Started of {
      session : int;
      arity : int;
      source : P.instance_source;
      strategy : string;
      seed : int;
      fingerprint : string;
    }
  | Answered of {
      session : int;
      cls : int;
      sg : Partition.t;
      label : State.label;
    }
  | Undone of { session : int }
  | Ended of { session : int }

let session = function
  | Started { session; _ }
  | Answered { session; _ }
  | Undone { session }
  | Ended { session } ->
    session

(* The JSON form journals written before the positional one hold;
   decoded only. *)
let codec =
  let open Jim_api.Codec in
  variant "ev" "journal event"
    [
      case "start"
        [ req "session" int; req "arity" int; req "source" P.source;
          req "strategy" string; req "seed" int; req "fp" string ]
        (fun [ session; arity; source; strategy; seed; fingerprint ] ->
          Started { session; arity; source; strategy; seed; fingerprint })
        (function
          | Started e ->
            Some
              [ e.session; e.arity; e.source; e.strategy; e.seed;
                e.fingerprint ]
          | _ -> None);
      case "answer"
        [ req "session" int; req "cls" int; req "sg" P.partition;
          req "label" P.label ]
        (fun [ session; cls; sg; label ] ->
          Answered { session; cls; sg; label })
        (function
          | Answered e -> Some [ e.session; e.cls; e.sg; e.label ] | _ -> None);
      case "undo" [ req "session" int ]
        (fun [ session ] -> Undone { session })
        (function Undone { session } -> Some [ session ] | _ -> None);
      case "end" [ req "session" int ]
        (fun [ session ] -> Ended { session })
        (function Ended { session } -> Some [ session ] | _ -> None);
    ]

let label_to_string = function State.Pos -> "+" | State.Neg -> "-"

let to_string = function
  | Started e ->
    String.concat " "
      [ "s"; string_of_int e.session; string_of_int e.arity; e.strategy;
        string_of_int e.seed; e.fingerprint;
        Jim_api.Codec.to_string P.source e.source ]
  | Answered e ->
    String.concat " "
      [ "a"; string_of_int e.session; string_of_int e.cls;
        label_to_string e.label; Partition.to_string e.sg ]
  | Undone { session } -> "u " ^ string_of_int session
  | Ended { session } -> "e " ^ string_of_int session

(* [s] cut at its first [n - 1] spaces into [n] fields, the last
   holding the rest of the line; [None] if it has fewer spaces. *)
let split n s =
  let rec go acc n from =
    if n = 1 then Some (List.rev (String.sub s from (String.length s - from) :: acc))
    else
      match String.index_from_opt s from ' ' with
      | None -> None
      | Some i -> go (String.sub s from (i - from) :: acc) (n - 1) (i + 1)
  in
  go [] n 0

let ( let* ) = Result.bind

let positional line =
  let fail fmt = Printf.ksprintf (fun m -> Error ("journal event: " ^ m)) fmt in
  let int what v =
    match int_of_string_opt v with Some n -> Ok n | None -> fail "bad %s %S" what v
  in
  match split 2 line with
  | Some [ "s"; rest ] -> (
    match split 6 rest with
    | Some [ session; arity; strategy; seed; fingerprint; source ] ->
      let* session = int "session" session in
      let* arity = int "arity" arity in
      let* seed = int "seed" seed in
      let* source = Jim_api.Codec.of_string P.source source in
      Ok (Started { session; arity; source; strategy; seed; fingerprint })
    | _ -> fail "a start wants 6 fields")
  | Some [ "a"; rest ] -> (
    match split 4 rest with
    | Some [ session; cls; label; sg ] ->
      let* session = int "session" session in
      let* cls = int "class" cls in
      let* label =
        match label with
        | "+" -> Ok State.Pos
        | "-" -> Ok State.Neg
        | l -> fail "bad label %S" l
      in
      let* sg = if sg = "" then fail "empty signature" else Partition.of_string sg in
      Ok (Answered { session; cls; sg; label })
    | _ -> fail "an answer wants 4 fields")
  | Some [ "u"; session ] ->
    let* session = int "session" session in
    Ok (Undone { session })
  | Some [ "e"; session ] ->
    let* session = int "session" session in
    Ok (Ended { session })
  | Some (tag :: _) -> fail "unknown tag %S" tag
  | _ -> fail "expected a tag and its fields"

let of_string s =
  if String.starts_with ~prefix:"{" s then Jim_api.Codec.of_string codec s
  else positional s
