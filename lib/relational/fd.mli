(** Constraint discovery over instances: unary functional dependencies,
    minimal keys and inclusion dependencies.

    The paper's introduction lists constraint inference and data
    integration among JIM's application areas; these profiling primitives
    are the classical seeding step — inclusion dependencies between two
    sources nominate the candidate equality atoms a join predicate could
    use, and keys/FDs explain which inferred predicates are lossless. *)

val unary_fds : Relation.t -> (int * int) list
(** All pairs [(a, b)], [a <> b], with [a -> b]: any two tuples agreeing
    on column [a] (under {!Value.identical}) agree on [b].  Sorted
    lexicographically.  Vacuously includes pairs where [a] is a key. *)

val holds_fd : Relation.t -> lhs:int list -> rhs:int -> bool
(** Does the composite dependency [lhs -> rhs] hold? *)

val minimal_keys : ?max_size:int -> Relation.t -> int list list
(** Minimal keys, levelwise up to [max_size] columns (default 3);
    supersets of found keys are pruned.  Sorted by size then
    lexicographically. *)

val inclusion : Relation.t -> int -> Relation.t -> int -> float
(** [inclusion r a s b]: fraction of [r]'s non-null distinct [a]-values
    that occur among [s]'s [b]-values — 1.0 for a perfect inclusion
    dependency (e.g. a foreign key), 0.0 for disjoint domains.  Returns
    1.0 when [r.a] has no non-null values. *)

val suggest_join_pairs :
  ?threshold:float -> Relation.t -> Relation.t ->
  (int * int * float) list
(** Candidate equality atoms between two relations: same-typed column
    pairs [(a, b)] whose symmetrised inclusion score
    [max (inclusion r a s b) (inclusion s b r a)] reaches [threshold]
    (default 0.8), best first.  This is the metadata-free "which columns
    could possibly join?" heuristic for disparate sources. *)
