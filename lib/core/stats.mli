(** Progress statistics shown in the interface after every interaction
    ("the total number (and the relative percentage) of tuples that have
    been explicitly labeled by the user or deemed as uninformative"). *)

type t = {
  labeled : int;              (** tuples explicitly labelled *)
  auto_determined : int;      (** tuples decided without a label *)
  still_informative : int;
  total : int;
  labeled_pct : float;
  auto_pct : float;
  version_space : float;      (** consistent predicates remaining *)
  scoring : Metrics.snapshot;
      (** the engine's own work counters ({!Session.counters}) *)
}

val of_engine : Session.t -> t
