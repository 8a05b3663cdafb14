(** Input handling for the interactive loop.  An input source abstracts
    stdin so the whole TUI is scriptable in tests ("press" a canned
    sequence of answers). *)

type source

val stdin_source : source
val of_list : string list -> source
(** Canned answers; raises [End_of_file] past the end. *)

type answer = Yes | No | Quit | Help | Undo

val ask_label : ?out:out_channel -> source -> string -> answer
(** Print the question and parse y/n/q/h/u (case-insensitive, with
    re-prompting on junk).  End of input is [Quit]. *)
