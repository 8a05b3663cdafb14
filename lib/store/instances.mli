(** The instance table of one store generation: for each instance
    fingerprint, the concrete [Csv_inline] origin that the generation's
    files (its snapshot, then its journal, in file order) already hold.

    A generation holds each inline instance's text once.  The first
    mention of a fingerprint carries the concrete source; every later
    session on the same origin is written as [Catalog fp], and a reader
    resolves the reference against the table built from everything
    before it in the same generation.  A checkpoint starts a new table
    from the new snapshot's sessions, so each generation's files stay
    self-contained.

    Only [Csv_inline] sources are referenced: a [Builtin] or [Synthetic]
    source is already shorter than a reference.  The first origin seen
    for a fingerprint stays its origin; another text with the same
    fingerprint is always written concretely, so a reference resolves
    to exactly the source it replaced.

    The table is immutable, so a reader can validate a whole batch
    before committing to it. *)

type t

val empty : t

val compact :
  t ->
  fingerprint:string ->
  Jim_api.Protocol.instance_source ->
  Jim_api.Protocol.instance_source
(** The form to write: [Catalog fingerprint] when the source is the
    inline origin the table holds for [fingerprint]; the source itself
    (physically) otherwise. *)

val hold :
  t -> fingerprint:string -> Jim_api.Protocol.instance_source -> t
(** The table once the source has been written concretely: an inline
    source whose fingerprint has no origin yet becomes its origin.
    Anything else leaves the table unchanged. *)

val resolve :
  t ->
  Jim_api.Protocol.instance_source ->
  (Jim_api.Protocol.instance_source, string) result
(** The inverse of {!compact}: [Catalog fp] becomes the origin held for
    [fp], or an error naming [fp] when this generation holds none.
    Other sources come back unchanged. *)

(** {1 Journal events}

    The same operations on a [Started] event's source; every other
    event passes through (physically) unchanged. *)

val compact_event : t -> Event.t -> Event.t

val read_event : t -> Event.t -> (Event.t * t, string) result
(** [resolve] then [hold]: a record read back in file order, as a
    concrete event, and the table after it. *)
