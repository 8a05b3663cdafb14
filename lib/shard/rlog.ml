type entry =
  | Member_added of string
  | Member_removed of string
  | Placed of { session : int; shard : string }
  | Released of { session : int }
  | Failed_over of { shard : string }

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

let to_string = Jim_api.Codec.to_string codec
let of_string = Jim_api.Codec.of_string codec
