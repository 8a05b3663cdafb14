(** The SQL that inferred join predicates are printed as, re-executed.

    JIM infers equi-join predicates, so the only SQL this repository
    writes is [Jquery.to_sql]'s
    [SELECT * FROM r1, ..., rk WHERE a = b AND ...] (or [WHERE TRUE]).
    This module evaluates exactly that fragment over a {!Database.t}, as
    an oracle for tests and examples that check an inferred query's
    result set; nothing in the serving binary links it.

    Keywords are case-insensitive.  A column is named bare or qualified
    ([r.a]) and resolved with {!Schema.find} over the qualified product
    schema, so a bare name must be unambiguous. *)

val exec : Database.t -> string -> (Relation.t, string) result
(** [exec db text]: the rows of the product of the [FROM] relations
    ({!Relation.product}, in the listed order) whose equated columns hold
    {!Value.equal} values.  That is SQL's [=]: [Null] equals nothing,
    not even [Null].

    Returns [Error] on anything else: text outside the fragment, an
    unknown relation, a relation listed twice, an unknown or ambiguous
    column.  Never raises. *)
