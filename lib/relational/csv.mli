(** Minimal RFC-4180-style CSV reader/writer: quoted fields, escaped quotes
    ([""]) and embedded separators/newlines are supported.  Used to load
    external instances into the inference engine and to dump experiment
    results. *)

val parse_string : ?sep:char -> string -> string list list
(** Rows of raw fields.  A trailing newline does not produce an empty row.
    Raises [Failure] on an unterminated quoted field. *)

val print_string : ?sep:char -> string list list -> string
(** Quotes a field iff it contains the separator, a quote or a newline. *)

val add_field : ?sep:char -> Buffer.t -> string -> unit
(** One field as {!print_string} writes it (quoted iff needed), appended
    to a buffer: for writers that assemble rows without lists. *)

val load : ?sep:char -> ?name:string -> Schema.t -> string -> (Relation.t, string) result
(** [load schema path]: reads the file, checks the header row against the
    schema's column names (header is required) and parses each field at
    its column type.  Returns a descriptive error on the first bad cell. *)

val load_string : ?sep:char -> ?name:string -> string -> (Relation.t, string) result
(** {!load_auto} on in-memory CSV text (header row, column types
    inferred); what the wire protocol's inline-CSV instance source uses. *)

val load_auto : ?sep:char -> ?name:string -> string -> (Relation.t, string) result
(** Like {!load} but infers each column's type from the data (int ⊂ float
    ⊂ string; bool and date recognised when every non-empty cell parses). *)

val to_string : ?sep:char -> Relation.t -> string
(** A header row of attribute names, then one row per tuple: the text
    {!save} writes. *)

val save : ?sep:char -> Relation.t -> string -> unit
