(** Server-wide, immutable, refcounted instance catalog.

    JIM's per-session set-up cost is per-instance derivation — the
    canonical CSV and its fingerprint, signature-class grouping with
    each class's pair words, the round-0 statuses — yet all of it
    depends only on the instance, not the session.  The catalog interns
    one {!entry} per distinct instance, keyed by the canonical CSV
    fingerprint the durable store already journals for restore-drift
    detection, so a thousand sessions on the same dataset share one
    derivation.

    Entries are refcounted: {!resolve} pins, {!release} unpins, and a
    refcount-zero entry idles until the LRU cap ([max_entries]) evicts
    it.  Eviction only forgets the cache — re-resolving the concrete
    source re-derives, and a [Catalog fp] start answers
    [Unknown_instance] until someone re-registers.

    Memory: an entry is its derivation and nothing more, so its size is
    fixed by the instance and does not grow with the sessions it serves
    or the states they visit (each pick's scorer memo is dropped with
    the pick, see {!Jim_core.Scorer.memo}).  The catalog holds at most
    [max_entries] entries — more only while pinned entries push it past
    its cap. *)

type entry = {
  fingerprint : string;  (** canonical CSV fingerprint = the catalog key *)
  relation : Jim_relational.Relation.t;
  schema : Jim_relational.Schema.t;
  arity : int;
  tuples : int;
  bytes : int;  (** canonical CSV size, the unit of the bytes counter *)
  classes : Jim_core.Sigclass.cls array;
  row_class : int array;  (** row number → class index *)
  initial_statuses : Jim_core.State.status array;
      (** class statuses at round 0 (empty state) *)
  origin : Jim_api.Protocol.instance_source;
      (** the concrete (never [Catalog]) source first seen for this data
          — what session-start events journal, so recovery after a
          restart can re-resolve without the (empty) catalog *)
}
(** Everything derivable from the instance alone.  Immutable after
    interning; safe to read from any thread without the catalog lock. *)

type t

val create : ?max_entries:int -> ?now:(unit -> float) -> unit -> t
(** [max_entries] (default 64, clamped to [>= 1]) bounds the cataloged
    instances; [now] injects a clock for eviction tests. *)

val resolve :
  t ->
  Jim_api.Protocol.instance_source ->
  (entry, Jim_api.Protocol.error) result
(** Resolve a source to a pinned entry (the caller owes one {!release}).

    [Catalog fp] looks up the fingerprint and never derives;
    a miss is [Unknown_instance].  A concrete source is first looked up
    by value (a repeat source is a hit: no fingerprinting, no
    derivation; an inline text is hashed and compared, never re-encoded,
    and the catalog keeps the source it was given rather than a copy);
    on a miss it is resolved and fingerprinted — exactly once per entry,
    counted by [fingerprints] — and either aliased to an existing entry
    carrying the same data or derived and interned (counted by
    [derivations]).  Bad concrete sources fail as before with
    [Bad_source].

    Derivation runs under the catalog lock: two racing sessions on a new
    instance serialise briefly rather than derive twice. *)

val release : t -> entry -> unit
(** Unpin one reference.  When the last reference drops the entry stays
    cataloged (warm) but becomes evictable, LRU by release time. *)

val engine : entry -> Jim_core.Session.t
(** A warm-started engine: shares the entry's classes and row map,
    copies the round-0 statuses, derives nothing. *)

val relation_of :
  Jim_api.Protocol.instance_source ->
  ( Jim_relational.Relation.t * Jim_relational.Schema.t,
    Jim_api.Protocol.error )
  result
(** Resolve a concrete source outside any catalog (the table the catalog
    itself uses; exposed for clients that regenerate instances locally).
    [Catalog fp] fails with [Unknown_instance]. *)

val stats : t -> Jim_api.Protocol.catalog_stats
(** Counter snapshot — the payload of the wire [Catalog_stats] reply.
    [fingerprints] and [derivations] are how tests assert the
    once-per-entry invariants. *)

val stats_to_string : Jim_api.Protocol.catalog_stats -> string
(** One human-readable line ([catalog: N entries (...)]), as
    [jim serve --stats-every] and [jim instance stats] print it. *)
