(** The statistics panel the demo keeps on screen: labelled /
    auto-determined percentages and the shrinking version space. *)

val panel : Jim_core.Stats.t -> string
(** Multi-line panel with a proportion bar; includes the scorer line
    once at least one question has been picked. *)
