module Codec = Jim_api.Codec
module P = Jim_api.Protocol
module Transcript = Jim_core.Transcript

type session = {
  id : int;
  source : P.instance_source;
  strategy : string;
  seed : int;
  fingerprint : string;
  transcript : Transcript.t;
}

type t = { next_id : int; sessions : session list }

let instances t =
  List.fold_left
    (fun tbl s -> Instances.hold tbl ~fingerprint:s.fingerprint s.source)
    Instances.empty t.sessions

(* Each inline instance's text goes with the first session on it; later
   sessions on the same origin carry [Catalog fp]. *)
let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "jim-snapshot 1\n";
  Buffer.add_string buf (Printf.sprintf "next-id %d\n" t.next_id);
  ignore
    (List.fold_left
       (fun tbl s ->
         Buffer.add_string buf
           (Printf.sprintf "session %d %s %d %s\n" s.id s.strategy s.seed
              s.fingerprint);
         let source =
           Instances.compact tbl ~fingerprint:s.fingerprint s.source
         in
         Buffer.add_string buf
           ("source " ^ Codec.to_string P.source source ^ "\n");
         Buffer.add_string buf (Transcript.to_string s.transcript);
         Buffer.add_string buf "end\n";
         Instances.hold tbl ~fingerprint:s.fingerprint s.source)
       Instances.empty t.sessions);
  let body = Buffer.contents buf in
  body ^ "checksum " ^ Crc32.to_hex (Crc32.digest_string body) ^ "\n"

let ( let* ) = Result.bind

let of_string text =
  (* Peel and verify the checksum trailer first: everything after this is
     parsing known-good bytes. *)
  let* body =
    let len = String.length text in
    if len = 0 || text.[len - 1] <> '\n' then
      Error "snapshot: missing checksum trailer"
    else
      match String.rindex_from_opt text (len - 2) '\n' with
      | None -> Error "snapshot: missing checksum trailer"
      | Some i -> (
        let body = String.sub text 0 (i + 1) in
        let trailer = String.sub text (i + 1) (len - i - 2) in
        match String.split_on_char ' ' trailer with
        | [ "checksum"; hex ] ->
          let actual = Crc32.to_hex (Crc32.digest_string body) in
          if String.lowercase_ascii hex = actual then Ok body
          else
            Error
              (Printf.sprintf "snapshot: checksum mismatch (stored %s, computed %s)"
                 hex actual)
        | _ -> Error "snapshot: missing checksum trailer")
  in
  (* Each line with its byte offset, so an unresolved instance reference
     names where it sits. *)
  let lines =
    let off = ref 0 in
    List.map
      (fun l ->
        let o = !off in
        off := o + String.length l + 1;
        (o, l))
      (String.split_on_char '\n' body)
  in
  let* rest =
    match lines with
    | (_, "jim-snapshot 1") :: rest -> Ok rest
    | _ -> Error "snapshot: unknown header"
  in
  let* next_id, rest =
    match rest with
    | (_, first) :: more -> (
      match String.split_on_char ' ' first with
      | [ "next-id"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> Ok (n, more)
        | _ -> Error "snapshot: bad next-id")
      | _ -> Error "snapshot: expected a next-id line")
    | [] -> Error "snapshot: missing next-id line"
  in
  let rec sessions acc tbl = function
    | [] | [ (_, "") ] -> Ok (List.rev acc)
    | (_, line) :: rest -> (
      match String.split_on_char ' ' line with
      | [ "session"; id; strategy; seed; fingerprint ] -> (
        let* id =
          Option.to_result ~none:"snapshot: bad session id"
            (int_of_string_opt id)
        in
        let* seed =
          Option.to_result ~none:"snapshot: bad session seed"
            (int_of_string_opt seed)
        in
        match rest with
        | (offset, src) :: rest
          when String.length src > 7 && String.sub src 0 7 = "source " ->
          let* source =
            Codec.of_string P.source (String.sub src 7 (String.length src - 7))
          in
          let* source =
            Result.map_error
              (Printf.sprintf "snapshot: byte offset %d: %s" offset)
              (Instances.resolve tbl source)
          in
          (* The transcript block runs until the "end" sentinel. *)
          let rec split_block acc = function
            | (_, "end") :: rest -> Ok (List.rev acc, rest)
            | (_, l) :: rest -> split_block (l :: acc) rest
            | [] -> Error "snapshot: unterminated transcript block"
          in
          let* block, rest = split_block [] rest in
          let* transcript = Transcript.of_string (String.concat "\n" block) in
          sessions
            ({ id; source; strategy; seed; fingerprint; transcript } :: acc)
            (Instances.hold tbl ~fingerprint source)
            rest
        | _ -> Error "snapshot: expected a source line")
      | _ -> Error ("snapshot: bad line: " ^ line))
  in
  let* sessions = sessions [] Instances.empty rest in
  Ok { next_id; sessions }

(* Write-tmp / fsync / rename / fsync-dir, all through the pluggable
   [Io.t] so a fault filesystem can cut power at any byte of the
   snapshot protocol.  An injected power cut (a non-[Unix_error]
   exception) propagates raw: it models the process dying, not an error
   the checkpoint could handle. *)
let write ?(io = Io.real) path t =
  let tmp = path ^ ".tmp" in
  match
    let file = io.Io.create tmp in
    Fun.protect
      ~finally:(fun () -> try file.Io.close () with Unix.Unix_error _ -> ())
      (fun () ->
        let data = Bytes.of_string (to_string t) in
        let len = Bytes.length data in
        let rec go off =
          if off < len then go (off + file.Io.write data off (len - off))
        in
        go 0;
        file.Io.fsync ());
    io.Io.rename tmp path;
    io.Io.fsync_dir (Filename.dirname path)
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, op, _) ->
    io.Io.remove tmp;
    Error (Printf.sprintf "snapshot %s: %s: %s" path op (Unix.error_message e))

let load ?(io = Io.real) path =
  match io.Io.read_file path with
  | Error msg -> Error msg
  | Ok text -> (
    match of_string text with
    | Ok t -> Ok t
    | Error e -> Error (path ^ ": " ^ e))
