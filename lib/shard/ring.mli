(** The consistent-hash ring the router places sessions with.

    Each member (shard name) contributes [vnodes] pseudo-random points
    on a 2^32 ring (CRC-32 of ["<name>#<i>"]); a key is owned by the
    first point clockwise from the key's own hash.  Properties the
    tests pin:

    - {e determinism}: the ring is a pure function of the membership
      set (and [vnodes]) — same members, same placement, across
      processes and restarts;
    - {e stability}: removing a member only moves the keys it owned;
      adding one only moves the keys it now owns — about [1/(n+1)] of
      them — and every moved key moves {e to} the new member. *)

type t

val create : ?vnodes:int -> string list -> t
(** A ring over the given member names (duplicates ignored).  [vnodes]
    (default 64) trades placement smoothness against ring size.
    Raises [Invalid_argument] if [vnodes < 1]. *)

val members : t -> string list
(** Sorted, distinct. *)

val vnodes : t -> int

val add : t -> string -> t
val remove : t -> string -> t

val place : t -> string -> string option
(** The member owning this key; [None] iff the ring is empty. *)

val session_key : int -> string
(** The routing key for a session id (non-catalog sources place by
    session). *)

val fingerprint_key : string -> string
(** The routing key for an instance fingerprint ([Catalog] sources and
    registrations place by fingerprint, so each catalog entry lives on
    exactly one shard). *)
