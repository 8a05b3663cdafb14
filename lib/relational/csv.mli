(** Minimal RFC-4180-style CSV reader/writer: quoted fields, escaped quotes
    ([""]) and embedded separators/newlines are supported.  Used to load
    external instances into the inference engine and to dump experiment
    results.

    One reader serves every entry point below.  It counts the text's
    separators and row breaks to size its arrays, then scans it once,
    recording each field as offsets into it, so only a quoted field is
    copied (to unescape it); typing and parsing then read the cells from
    those offsets.  The common shapes (decimal ints,
    short decimal floats, [true]/[false], [YYYY-MM-DD]) are read in
    place, and any other cell is handed to {!Value.parse} as a string,
    so values and error messages are exactly {!Value.parse}'s.  Its
    cost is two ints per field plus the values themselves: a string per
    cell only in string columns, where the cell {e is} the value.  On a
    2-core VM (release build, minimum of 100), {!load_string} of a
    19 KB 6 x 1,600 text of small ints takes about 0.4 ms and 31k minor
    words, and {!canonical} of the relation about 0.12 ms. *)

val parse_string : ?sep:char -> string -> string list list
(** Rows of raw fields.  A trailing newline does not produce an empty row.
    Raises [Failure] on an unterminated quoted field. *)

val print_string : ?sep:char -> string list list -> string
(** Quotes a field iff it contains the separator, a quote or a newline. *)

val load : ?sep:char -> ?name:string -> Schema.t -> string -> (Relation.t, string) result
(** [load schema path]: reads the file, checks the header row against the
    schema's column names (header is required) and parses each field at
    its column type.  Returns a descriptive error on the first bad cell. *)

val load_string : ?sep:char -> ?name:string -> string -> (Relation.t, string) result
(** {!load_auto} on in-memory CSV text (header row, column types
    inferred). *)

val load_auto : ?sep:char -> ?name:string -> string -> (Relation.t, string) result
(** Like {!load} but infers each column's type from the data (int ⊂ float
    ⊂ string; bool and date recognised when every non-empty cell parses). *)

val canonical : Relation.t -> string
(** The relation's canonical text, which instance fingerprints hash: a
    header line of the column names and then their type names, then one
    line per tuple of {!Value.to_string} fields, every field as
    {!print_string} writes it and every line ended by ['\n'].  Non-negative
    ints are written straight into the text, without a string per
    field. *)

val to_string : ?sep:char -> Relation.t -> string
(** A header row of attribute names, then one row per tuple: the text
    {!save} writes. *)

val save : ?sep:char -> Relation.t -> string -> unit
