module P = Jim_api.Protocol
module M = Map.Make (String)

type t = P.instance_source M.t

let empty = M.empty

let compact t ~fingerprint source =
  match source with
  | P.Csv_inline _ -> (
    match M.find_opt fingerprint t with
    | Some origin when origin == source || origin = source ->
      P.Catalog fingerprint
    | _ -> source)
  | _ -> source

let hold t ~fingerprint source =
  match source with
  | P.Csv_inline _ when not (M.mem fingerprint t) -> M.add fingerprint source t
  | _ -> t

let resolve t = function
  | P.Catalog fp -> (
    match M.find_opt fp t with
    | Some origin -> Ok origin
    | None ->
      Error
        (Printf.sprintf
           "instance reference %s has no origin earlier in this generation" fp))
  | source -> Ok source

let compact_event t ev =
  match ev with
  | Event.Started e ->
    let source = compact t ~fingerprint:e.fingerprint e.source in
    if source == e.source then ev else Event.Started { e with source }
  | _ -> ev

let read_event t ev =
  match ev with
  | Event.Started e ->
    Result.map
      (fun source ->
        ( (if source == e.source then ev else Event.Started { e with source }),
          hold t ~fingerprint:e.fingerprint source ))
      (resolve t e.source)
  | _ -> Ok (ev, t)
