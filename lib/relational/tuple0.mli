(** Tuples: fixed-width arrays of {!Value.t}.  Named [Tuple0] to leave the
    name [Tuple] free for users of the wrapped library. *)

type t = Value.t array

val arity : t -> int
val get : t -> int -> Value.t
val make : Value.t list -> t
val concat : t -> t -> t
val project : t -> int list -> t

val equal : t -> t -> bool
(** Pointwise {!Value.identical}. *)

val compare : t -> t -> int

val signature : t -> Jim_partition.Partition.t
(** The partition of attribute positions induced by value identity: [i]
    and [j] share a block iff [Value.identical t.(i) t.(j)].  The single
    bridge between the relational substrate and the inference lattice: a
    tuple satisfies join predicate [θ] iff [θ] refines [signature t]. *)

val satisfies : Jim_partition.Partition.t -> t -> bool
(** [satisfies theta t]: every pair of attributes equated by [theta] holds
    identical values in [t].  Raises [Invalid_argument] if the predicate
    size differs from the tuple arity. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
