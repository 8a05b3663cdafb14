module P = Jim_api.Protocol

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
      sg : Jim_partition.Partition.t;
      label : Jim_core.State.label;
    }
  | Undone of { session : int }
  | Ended of { session : int }

let session = function
  | Started { session; _ }
  | Answered { session; _ }
  | Undone { session }
  | Ended { session } ->
    session

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

let to_string = Jim_api.Codec.to_string codec
let of_string = Jim_api.Codec.of_string codec
