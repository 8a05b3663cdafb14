type entry =
  | Member_added of string
  | Member_removed of string
  | Placed of { session : int; shard : string }
  | Released of { session : int }
  | Failed_over of { shard : string }

(* The JSON form router logs written before the positional one hold;
   decoded only. *)
let codec =
  let open Jim_api.Codec in
  variant "rl" "router log entry"
    [
      case "add" [ req "shard" string ]
        (fun [ shard ] -> Member_added shard)
        (function Member_added shard -> Some [ shard ] | _ -> None);
      case "remove" [ req "shard" string ]
        (fun [ shard ] -> Member_removed shard)
        (function Member_removed shard -> Some [ shard ] | _ -> None);
      case "place" [ req "session" int; req "shard" string ]
        (fun [ session; shard ] -> Placed { session; shard })
        (function
          | Placed { session; shard } -> Some [ session; shard ] | _ -> None);
      case "release" [ req "session" int ]
        (fun [ session ] -> Released { session })
        (function Released { session } -> Some [ session ] | _ -> None);
      case "failover" [ req "shard" string ]
        (fun [ shard ] -> Failed_over { shard })
        (function Failed_over { shard } -> Some [ shard ] | _ -> None);
    ]

let to_string = function
  | Member_added shard -> "a " ^ shard
  | Member_removed shard -> "d " ^ shard
  | Placed { session; shard } -> "p " ^ string_of_int session ^ " " ^ shard
  | Released { session } -> "r " ^ string_of_int session
  | Failed_over { shard } -> "f " ^ shard

let cut s =
  Option.map
    (fun i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1)))
    (String.index_opt s ' ')

let positional line =
  let fail fmt = Printf.ksprintf (fun m -> Error ("router log: " ^ m)) fmt in
  let session v k =
    match int_of_string_opt v with Some n -> Ok (k n) | None -> fail "bad session %S" v
  in
  match cut line with
  | Some ("a", shard) -> Ok (Member_added shard)
  | Some ("d", shard) -> Ok (Member_removed shard)
  | Some ("f", shard) -> Ok (Failed_over { shard })
  | Some ("r", v) -> session v (fun session -> Released { session })
  | Some ("p", rest) -> (
    match cut rest with
    | Some (v, shard) -> session v (fun session -> Placed { session; shard })
    | None -> fail "a placement wants a session and a shard")
  | Some (tag, _) -> fail "unknown tag %S" tag
  | None -> fail "expected a tag and its fields"

let of_string s =
  if String.starts_with ~prefix:"{" s then Jim_api.Codec.of_string codec s
  else positional s
