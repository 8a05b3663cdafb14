let parse_string ?(sep = ',') s =
  let n = String.length s in
  let rows = ref [] and fields = ref [] in
  let buf = Buffer.create 32 in
  (* A quoted empty field leaves the buffer empty, so the end-of-input
     flush below cannot tell it from "no field at all" — this flag can. *)
  let started = ref false in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf;
    started := false
  in
  let flush_row () =
    flush_field ();
    rows := List.rev !fields :: !rows;
    fields := []
  in
  let rec plain i =
    if i >= n then ()
    else
      match s.[i] with
      | c when c = sep ->
        flush_field ();
        plain (i + 1)
      | '\r' when i + 1 < n && s.[i + 1] = '\n' ->
        flush_row ();
        plain (i + 2)
      | '\n' | '\r' ->
        flush_row ();
        plain (i + 1)
      | '"' when Buffer.length buf = 0 ->
        (* A quote at field start opens a quoted field; elsewhere it is a
           literal character. *)
        started := true;
        quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        plain (i + 1)
  and quoted i =
    if i >= n then failwith "Csv: unterminated quoted field"
    else
      match s.[i] with
      | '"' when i + 1 < n && s.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | '"' -> plain (i + 1)
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  plain 0;
  (* Emit the last row unless the input ended with a newline (or was
     empty). *)
  if Buffer.length buf > 0 || !fields <> [] || !started then flush_row ();
  List.rev !rows

let needs_quoting sep f =
  String.exists (fun c -> c = sep || c = '"' || c = '\n' || c = '\r') f

let add_field ?(sep = ',') buf f =
  if needs_quoting sep f then begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      f;
    Buffer.add_char buf '"'
  end
  else Buffer.add_string buf f

let print_string ?(sep = ',') rows =
  let field f =
    let buf = Buffer.create (String.length f + 2) in
    add_field ~sep buf f;
    Buffer.contents buf
  in
  String.concat ""
    (List.map
       (fun row -> String.concat (String.make 1 sep) (List.map field row) ^ "\n")
       rows)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_rows schema name rows =
  match rows with
  | [] -> Error "empty CSV file"
  | header :: data ->
    let expected = Array.to_list (Schema.names schema) in
    if header <> expected then
      Error
        (Printf.sprintf "header mismatch: expected [%s], got [%s]"
           (String.concat "; " expected)
           (String.concat "; " header))
    else begin
      let exception Bad of string in
      try
        let parse_row rownum fields =
          if List.length fields <> Schema.arity schema then
            raise
              (Bad (Printf.sprintf "row %d: expected %d fields, got %d" rownum
                      (Schema.arity schema) (List.length fields)));
          Tuple0.make
            (List.mapi
               (fun i f ->
                 match Value.parse (Schema.column schema i).Schema.cty f with
                 | Ok v -> v
                 | Error e -> raise (Bad (Printf.sprintf "row %d: %s" rownum e)))
               fields)
        in
        Ok (Relation.make ~name schema (List.mapi (fun k -> parse_row (k + 2)) data))
      with
      | Bad msg -> Error msg
      | Invalid_argument msg -> Error msg
    end

let load ?sep ?name schema path =
  let name = Option.value name ~default:(Filename.remove_extension (Filename.basename path)) in
  match parse_string ?sep (read_file path) with
  | rows -> parse_rows schema name rows
  | exception Failure msg -> Error msg
  | exception Sys_error msg -> Error msg

let infer_column_ty cells =
  let non_empty = List.filter (fun c -> c <> "") cells in
  let all parser = non_empty <> [] && List.for_all parser non_empty in
  if all (fun c -> int_of_string_opt c <> None) then Value.Tint
  else if all (fun c -> float_of_string_opt c <> None) then Value.Tfloat
  else if
    all (fun c ->
        match String.lowercase_ascii c with
        | "true" | "false" -> true
        | _ -> false)
  then Value.Tbool
  else if all (fun c -> match Value.parse Value.Tdate c with Ok _ -> true | Error _ -> false)
  then Value.Tdate
  else Value.Tstring

let load_string ?sep ?(name = "csv") text =
  match parse_string ?sep text with
  | exception Failure msg -> Error msg
  | [] -> Error "empty CSV file"
  | header :: data ->
    let columns =
      List.mapi
        (fun i cname ->
          let cells = List.filter_map (fun row -> List.nth_opt row i) data in
          { Schema.cname; cty = infer_column_ty cells })
        header
    in
    (try parse_rows (Schema.make columns) name (header :: data)
     with Invalid_argument msg -> Error msg)

let load_auto ?sep ?name path =
  let name = Option.value name ~default:(Filename.remove_extension (Filename.basename path)) in
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text -> load_string ?sep ~name text

let to_string ?sep r =
  let header = Array.to_list (Schema.names (Relation.schema r)) in
  let rows =
    List.map
      (fun t -> List.map Value.to_string (Array.to_list t))
      (Relation.tuples r)
  in
  print_string ?sep (header :: rows)

let save ?sep r path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ?sep r))
