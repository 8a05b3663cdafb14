(** In-memory relations: a schema plus an immutable array of tuples.

    All operations are value-oriented and return fresh relations; tuple
    order is deterministic (operations preserve or document their order) so
    experiments are reproducible. *)

type t

val make : ?name:string -> Schema.t -> Tuple0.t list -> t
(** Raises [Invalid_argument] if a tuple's arity differs from the schema's
    or a non-null value's type differs from its column's type. *)

val of_array : ?name:string -> Schema.t -> Tuple0.t array -> t
(** {!make} on an array, which the relation keeps: the caller must not
    change it afterwards. *)

val of_rows : ?name:string -> Schema.t -> Value.t list list -> t

val name : t -> string
val schema : t -> Schema.t
val arity : t -> int
val cardinality : t -> int
val tuple : t -> int -> Tuple0.t
(** [tuple r i] is row [i] (0-based).  Raises [Invalid_argument] if out of
    range. *)

val tuples : t -> Tuple0.t list
val iteri : (int -> Tuple0.t -> unit) -> t -> unit
val fold : ('a -> Tuple0.t -> 'a) -> 'a -> t -> 'a

(** {1 Unary operators} *)

val select : (Tuple0.t -> bool) -> t -> t
val project : int list -> t -> t
val distinct : t -> t
(** Keeps the first occurrence of each tuple; preserves order. *)

val sample : ?seed:int -> int -> t -> t
(** [sample k r]: [k] rows drawn without replacement (all rows if
    [k >= cardinality]), deterministic for a given seed, order preserved. *)

(** {1 Combining relations} *)

val product : t list -> t
(** Cartesian product of the relations, in order; the schemas are
    concatenated after qualification with each relation's name.  Row
    order: left-major (the last relation's rows vary fastest).  Raises
    [Invalid_argument] on an empty list or a clash of qualified names
    (the same relation twice). *)

val union : t -> t -> t
(** Set union (distinct).  Raises [Invalid_argument] on schema arity/type
    mismatch. *)

(** {1 Join-inference views} *)

val signatures : t -> Jim_partition.Partition.t array
(** Signature of every row, in row order. *)

val satisfying : Jim_partition.Partition.t -> t -> t
(** Rows satisfying an equi-join predicate over this relation's attributes
    (the "join result" the user is labelling towards). *)

val equal_contents : t -> t -> bool
(** Same schema and same multiset of tuples (order-insensitive). *)

val pp : Format.formatter -> t -> unit
(** Compact one-line summary; use {!Jim_tui.Render} for full tables. *)
