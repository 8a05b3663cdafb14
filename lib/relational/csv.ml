(* ------------------------------------------------------------------ *)
(* The scanner                                                         *)

(* Every field of a text as bounds into it, found in one scan.  [cells]
   holds two ints per field: the offset where its raw text begins and
   the offset of the separator, row break or end of input that ends it.
   A field in which a quote opened has its begin stored as [lnot begin]
   (negative): only such a field must be unescaped, every other field
   is the text's own bytes.  Row [r] is fields [first_cell t r] to
   [row_ends.(r) - 1]. *)
type scan = {
  text : string;
  cells : int array;
  mutable n_cells : int;
  row_ends : int array;
  mutable n_rows : int;
}

let[@inline] push_cell t start stop =
  let k = 2 * t.n_cells in
  t.cells.(k) <- start;
  t.cells.(k + 1) <- stop;
  t.n_cells <- t.n_cells + 1

let push_row t =
  t.row_ends.(t.n_rows) <- t.n_cells;
  t.n_rows <- t.n_rows + 1

let first_cell t r = if r = 0 then 0 else t.row_ends.(r - 1)

(* The RFC-4180 state machine, with one quirk kept from the start: a
   quote opens a quoted section only at the start of a field, and
   anything after a closing quote is a literal (a quote never follows a
   closing one: the two would be an escaped quote). *)
let scan ?(sep = ',') text =
  let n = String.length text in
  (* Every field ends at a separator, a row break character or the end
     of the text, and every row at one of the last two: counting them
     sizes both arrays once, exactly for a text with no quoted
     separators or CRLFs.  Growing them instead would leave a series of
     discarded arrays, too large for the minor heap, in the major
     heap. *)
  let fields = ref 1 and rows = ref 1 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get text i in
    if c = sep then incr fields
    else if c = '\n' || c = '\r' then begin
      incr fields;
      incr rows
    end
  done;
  let t =
    { text; cells = Array.make (2 * !fields) 0; n_cells = 0;
      row_ends = Array.make !rows 0; n_rows = 0 }
  in
  (* The field being read: where it began and whether a quote opened in
     it. *)
  let start = ref 0 and quoted = ref false in
  let i = ref 0 in
  while !i < n do
    let c = String.unsafe_get text !i in
    if c = sep || c = '\n' || c = '\r' then begin
      push_cell t (if !quoted then lnot !start else !start) !i;
      incr i;
      if c <> sep then begin
        if c = '\r' && !i < n && String.unsafe_get text !i = '\n' then incr i;
        push_row t
      end;
      start := !i;
      quoted := false
    end
    else if c = '"' then begin
      (* Only at a field's start: content swallows its quotes below, and
         a closing quote is never followed by another. *)
      quoted := true;
      incr i;
      let closed = ref false in
      while not !closed do
        if !i >= n then failwith "Csv: unterminated quoted field"
        else if String.unsafe_get text !i <> '"' then incr i
        else if !i + 1 < n && String.unsafe_get text (!i + 1) = '"' then i := !i + 2
        else begin
          closed := true;
          incr i
        end
      done
    end
    else begin
      incr i;
      while
        !i < n
        &&
        let c = String.unsafe_get text !i in
        c <> sep && c <> '\n' && c <> '\r'
      do
        incr i
      done
    end
  done;
  (* The last row, unless the input ended with a row break (or was
     empty). *)
  if !start < n || t.n_cells > first_cell t t.n_rows then begin
    push_cell t (if !quoted then lnot !start else !start) n;
    push_row t
  end;
  t

(* A quoted field's content: the scanner's machine re-run over its raw
   text, which ends where a closing quote left the field. *)
let unescape text start stop =
  let buf = Buffer.create (stop - start) in
  let i = ref start and in_quotes = ref false in
  while !i < stop do
    let c = text.[!i] in
    if !in_quotes then
      if c <> '"' then Buffer.add_char buf c
      else if !i + 1 < String.length text && text.[!i + 1] = '"' then begin
        Buffer.add_char buf '"';
        incr i
      end
      else in_quotes := false
    else if c = '"' && !i = start then in_quotes := true
    else Buffer.add_char buf c;
    incr i
  done;
  Buffer.contents buf

(* [f x s a b] with [s.[a..b-1]] cell [k]'s content: the scanned text
   itself unless the cell was quoted. *)
let[@inline] with_cell t k f x =
  let start = t.cells.(2 * k) and stop = t.cells.((2 * k) + 1) in
  if start >= 0 then f x t.text start stop
  else
    let s = unescape t.text (lnot start) stop in
    f x s 0 (String.length s)

let sub s a b = if a = 0 && b = String.length s then s else String.sub s a (b - a)

let cell_string t k =
  let start = t.cells.(2 * k) and stop = t.cells.((2 * k) + 1) in
  if start >= 0 then String.sub t.text start (stop - start) else unescape t.text (lnot start) stop

let row_strings t r =
  List.init (t.row_ends.(r) - first_cell t r) (fun j -> cell_string t (first_cell t r + j))

let parse_string ?sep s =
  let t = scan ?sep s in
  List.init t.n_rows (row_strings t)

(* ------------------------------------------------------------------ *)
(* Cells as values                                                     *)

(* The typed reading of a cell straight from its bounds.  Each helper
   recognises one common shape and says "not this shape" otherwise, so
   the caller falls back to {!Value.parse} on a copy of the cell: the
   values and error strings are those of [Value.parse ty s] whatever the
   shape. *)

let none = min_int

let is_digit c = c >= '0' && c <= '9'

(* [s.[a..b-1]] as [[+-]?[0-9]{1,18}]: its value (what [int_of_string]
   makes of it, no overflow possible), or [none]. *)
let small_int s a b =
  let a' = if b > a && (s.[a] = '-' || s.[a] = '+') then a + 1 else a in
  if b - a' < 1 || b - a' > 18 then none
  else begin
    let v = ref 0 and i = ref a' in
    while !i < b && is_digit s.[!i] do
      v := (!v * 10) + Char.code s.[!i] - 48;
      incr i
    done;
    if !i < b then none else if s.[a] = '-' then - !v else !v
  end

let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15 |]

(* [s.[a..b-1]] as [[+-]?[0-9]+(\.[0-9]+)?] with at most 15 digits: its
   value, or [nan].  The digits make an integer below 2^53 and the
   fraction an exact power of ten, so the one division rounds correctly,
   as [float_of_string]'s [strtod] does. *)
let small_float s a b =
  let a' = if b > a && (s.[a] = '-' || s.[a] = '+') then a + 1 else a in
  let m = ref 0 and digits = ref 0 and frac = ref (-1) and ok = ref true in
  let i = ref a' in
  while !ok && !i < b do
    let c = s.[!i] in
    if is_digit c then begin
      m := (!m * 10) + Char.code c - 48;
      incr digits;
      if !frac >= 0 then incr frac
    end
    else if c = '.' && !frac < 0 && !digits > 0 then frac := 0
    else ok := false;
    incr i
  done;
  if (not !ok) || !digits = 0 || !digits > 15 || !frac = 0 then Float.nan
  else
    let v = float_of_int !m /. pow10.(max 0 !frac) in
    if s.[a] = '-' then -.v else v

(* [s.[a..b-1]] is "true" (1) or "false" (0), in any ASCII case, or
   neither (-1). *)
let bool_word s a b =
  let is w =
    b - a = String.length w
    &&
    let rec go j = j = String.length w || (Char.lowercase_ascii s.[a + j] = w.[j] && go (j + 1)) in
    go 0
  in
  if is "true" then 1 else if is "false" then 0 else -1

(* [s.[a..b-1]] as three [small_int] parts joined by dashes: its date,
   [Null] for an impossible one, or [Str ""] for another shape. *)
let small_date s a b =
  let other = Value.Str "" in
  match String.index_from_opt s a '-' with
  | Some d1 when d1 < b -> (
    match String.index_from_opt s (d1 + 1) '-' with
    | Some d2 when d2 < b ->
      let y = small_int s a d1 and m = small_int s (d1 + 1) d2 and d = small_int s (d2 + 1) b in
      if y = none || m = none || d = none then other
      else (try Value.date y m d with Invalid_argument _ -> Value.Null)
    | _ -> other)
  | _ -> other

exception Bad of string

let slow ty s a b =
  match Value.parse ty (sub s a b) with Ok v -> v | Error e -> raise (Bad e)

(* [Value.parse ty] on a cell, raising [Bad] with its error. *)
let value ty s a b =
  if a = b then Value.Null
  else
    match ty with
    | Value.Tint ->
      let i = small_int s a b in
      if i = none then slow ty s a b else Int i
    | Tfloat ->
      let f = small_float s a b in
      if Float.is_nan f then slow ty s a b else Float f
    | Tstring -> Str (sub s a b)
    | Tbool -> (
      match bool_word s a b with 1 -> Bool true | 0 -> Bool false | _ -> slow ty s a b)
    | Tdate -> ( match small_date s a b with Value.Date _ as v -> v | _ -> slow ty s a b)

(* Type inference's reading: {!value}, but a bool column holds only
   [true] and [false], in any case. *)
let inferred_value ty s a b =
  if ty = Value.Tbool && a < b && bool_word s a b < 0 then raise (Bad "not a bool")
  else value ty s a b

(* The data rows as tuples of the header's width, typed by the data,
   column by column.  A column is the first of int, float, bool and date
   that all its non-empty cells read as (at least one), else string;
   rows too short for a column do not vote, and a ragged row is left to
   the caller to refuse.  A type is tried by reading the column's cells
   as it, so the type that wins has read each cell once. *)
let typed_columns t arity =
  let rows = Array.init (t.n_rows - 1) (fun _ -> Array.make arity Value.Null) in
  let read col ty =
    let seen = ref (ty = Value.Tstring) in
    try
      for r = 1 to t.n_rows - 1 do
        let k = first_cell t r + col in
        if k < t.row_ends.(r) then begin
          let v = with_cell t k inferred_value ty in
          if v != Value.Null then seen := true;
          rows.(r - 1).(col) <- v
        end
      done;
      !seen
    with Bad _ -> false
  in
  let types =
    Array.init arity (fun col ->
        List.find (read col) Value.[ Tint; Tfloat; Tbool; Tdate; Tstring ])
  in
  (types, rows)

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

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

(* The decimal digits of [x >= 0], as [string_of_int] writes them. *)
let rec add_digits buf x =
  if x >= 10 then add_digits buf (x / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (x mod 10)))

(* [add_field buf (Value.to_string v)], but a non-negative int, which
   never needs quoting, is written without a string of its own. *)
let add_value buf = function
  | Value.Int i when i >= 0 -> add_digits buf i
  | v -> add_field buf (Value.to_string v)

let canonical rel =
  let buf = Buffer.create 4096 in
  let line fields add =
    for i = 0 to Array.length fields - 1 do
      if i > 0 then Buffer.add_char buf ',';
      add buf fields.(i)
    done;
    Buffer.add_char buf '\n'
  in
  let schema = Relation.schema rel in
  line
    (Array.append (Schema.names schema) (Array.map Value.ty_name (Schema.types schema)))
    (fun buf f -> add_field buf f);
  Relation.iteri (fun _ t -> line t add_value) rel;
  Buffer.contents buf

(* Every data row must have the schema's width: the first check on a
   row. *)
let check_width t r arity =
  let width = t.row_ends.(r) - first_cell t r in
  if width <> arity then
    raise (Bad (Printf.sprintf "row %d: expected %d fields, got %d" (r + 1) arity width))

(* Row [r] as a tuple of [types], raising [Bad] on a bad row. *)
let tuple t types r =
  check_width t r (Array.length types);
  let k0 = first_cell t r in
  let tuple = Array.make (Array.length types) Value.Null in
  (try
     for j = 0 to Array.length types - 1 do
       tuple.(j) <- with_cell t (k0 + j) value types.(j)
     done
   with Bad e -> raise (Bad (Printf.sprintf "row %d: %s" (r + 1) e)));
  tuple

let relation ~name schema rows =
  match Relation.of_array ~name schema (rows ()) with
  | r -> Ok r
  | exception Bad msg -> Error msg
  | exception Invalid_argument msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ?sep ?name schema path =
  let name = Option.value name ~default:(Filename.remove_extension (Filename.basename path)) in
  match scan ?sep (read_file path) with
  | exception Failure msg -> Error msg
  | exception Sys_error msg -> Error msg
  | t when t.n_rows = 0 -> Error "empty CSV file"
  | t ->
    let expected = Array.to_list (Schema.names schema) and header = row_strings t 0 in
    if header <> expected then
      Error
        (Printf.sprintf "header mismatch: expected [%s], got [%s]"
           (String.concat "; " expected)
           (String.concat "; " header))
    else
      relation ~name schema (fun () ->
          Array.init (t.n_rows - 1) (fun r0 -> tuple t (Schema.types schema) (r0 + 1)))

(* The header names the columns and {!typed_columns} types them. *)
let load_string ?sep ?(name = "csv") text =
  match scan ?sep text with
  | exception Failure msg -> Error msg
  | t when t.n_rows = 0 -> Error "empty CSV file"
  | t -> (
    let names = row_strings t 0 in
    let types, rows = typed_columns t (List.length names) in
    match Schema.make (List.mapi (fun i cname -> { Schema.cname; cty = types.(i) }) names) with
    | exception Invalid_argument msg -> Error msg
    | schema ->
      relation ~name schema (fun () ->
          for r = 1 to t.n_rows - 1 do
            check_width t r (Array.length types)
          done;
          rows))

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
