(** Building join-inference tasks from a multi-relation database: the
    "raw data coming from different data sources" scenario of the paper's
    introduction.  The denormalised instance the user labels is a
    (sampled) cartesian product of the source relations; the goal
    predicate is a partition of the product's attribute positions. *)

type task = {
  db : Jim_relational.Database.t;
  sources : string list;              (** relation names, product order *)
  instance : Jim_relational.Relation.t;  (** the table shown to the user *)
  schema : Jim_relational.Schema.t;      (** qualified product schema *)
  goal : Jim_partition.Partition.t;
  cross_only : (int * int) -> bool;
      (** mask selecting cross-relation attribute pairs; pass to
          [Partition.restrict] to drop intra-relation equalities from an
          inferred predicate *)
}

val task_of_names :
  ?sample:int -> ?seed:int -> Jim_relational.Database.t ->
  string list * (string * string) list -> (task, string) result
(** Build a task from relation names and goal atoms given as qualified
    attribute-name pairs — the format of {!Tpch.fk_customer_orders} &c.
    Errors on unknown relations/attributes. *)

val goal_join_result : task -> Jim_relational.Relation.t
(** The goal query evaluated over the {e full} product (not the sample):
    what the finished package list should be. *)

val oracle : task -> Jim_core.Oracle.t
(** The sound user for the task's goal. *)
