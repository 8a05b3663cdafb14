(** Bidirectional JSON codecs: one value describes both how to encode an
    ['a] and how to decode it back, so a message's field names, their
    order and their null rules are written once and both directions are
    derived from that.

    Objects are declared as an ordered list of {!field}s; tagged unions
    ({!variant}) as a list of {!case} rows, one per constructor.
    Decoding reads fields in the declared order and returns the first
    failure, with {!Json}'s wording: ["missing field \"k\""], ["expected
    an integer, got ..."], and so on. *)

type 'a t

val to_json : 'a t -> 'a -> Json.t
val of_json : 'a t -> Json.t -> ('a, string) result
val to_string : 'a t -> 'a -> string

val of_string : 'a t -> string -> ('a, string) result
(** {!Json.of_string}, then {!of_json}. *)

(** {1 Values} *)

val int : int t
val float : float t
val bool : bool t
val string : string t
val list : 'a t -> 'a list t

val nullable : 'a t -> 'a option t
(** [None] is [null]. *)

val conv : ('a -> 'b) -> ('b -> ('a, string) result) -> 'b t -> 'a t
(** [conv to_b of_b c] carries an ['a] as its ['b] rendering. *)

val enum : string -> ('a * string) list -> 'a t
(** Constant constructors as strings.  Any other value is refused with
    the given prefix followed by the offending JSON. *)

(** {1 Objects} *)

type 'a field

val req : string -> 'a t -> 'a field
(** A member that must be present (it may still be [null] if the codec
    is {!nullable}). *)

val opt : string -> 'a t -> 'a option field
(** Always written, [null] for [None]; absent or [null] reads as
    [None]. *)

val pair : string -> 'a t -> string -> 'b t -> ('a * 'b) option field
(** Two members that are both written or both omitted.  Exactly one of
    them present is refused: ["<a> and <b> must appear together"]. *)

val derived : string -> 'a t -> 'a option field
(** Written for [Some x], never read back: decodes to [None] whatever
    the member holds.  For members computed from the others. *)

type _ fields =
  | [] : unit fields
  | ( :: ) : 'a field * 'b fields -> ('a * 'b) fields
      (** The members of one object, in wire order. *)

type _ values =
  | [] : unit values
  | ( :: ) : 'a * 'b values -> ('a * 'b) values
      (** One value per field, in the same order: [fun [ a; b ] -> ...]
          builds from them, [fun x -> [ x.a; x.b ]] takes apart. *)

val obj : 'h fields -> ('h values -> 'a) -> ('a -> 'h values) -> 'a t
(** [obj fields inj prj]: a record carried as one object. *)

type 'a case

val case :
  string ->
  'h fields ->
  ('h values -> 'a) ->
  ('a -> 'h values option) ->
  'a case
(** [case tag fields inj prj]: one constructor of a tagged union; [prj]
    answers [None] for the other constructors. *)

val variant :
  ?head:(string * Json.t) list -> string -> string -> 'a case list -> 'a t
(** [variant ?head key what cases] writes
    [{<head>..., "<key>": "<tag>", <fields>...}]; [head] members are
    written but not read.  An unknown tag is refused as
    ["unknown <what> \"<tag>\""].  Every value must have a case. *)
