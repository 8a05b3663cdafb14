(** Periodic compaction of the journal: the full durable state of the
    server — every live session's surviving labels — serialised so the
    journal can be truncated and restarted.

    {1 Format}

    A snapshot is a line-based text file (human-auditable, like the
    transcripts it embeds), CRC-sealed by a trailer line:

    {v
    jim-snapshot 1
    next-id 17
    session 12 lookahead-entropy 42 9a3c21e0     # id strategy seed fingerprint
    source {"kind":"builtin","name":"flights"}
    jim-transcript 1                             # Jim_core.Transcript text,
    arity 5                                      # verbatim
    label {0,1}{2}{3}{4} +
    end
    ...more sessions...
    checksum 0f3a99c1                            # CRC-32 of all bytes above
    v}

    An inline CSV instance's text is written once, with the first
    session on it (in id order); later sessions on the same origin
    carry [{"kind":"catalog","fp":...}], which {!of_string} resolves
    back to the concrete source (see {!Instances}).  A reference with
    no origin earlier in the file is an error naming its byte offset.

    Each session's labels are the {e surviving} history (undone rounds
    are compacted away, exactly like {!Jim_core.Transcript.of_engine}),
    so recovery replays them as if the user had answered that sequence
    directly.

    Snapshots are written atomically — temp file, fsync, [rename],
    directory fsync — so a crash mid-write leaves the previous
    generation untouched and a present snapshot file is always complete
    (a failing checksum therefore means real corruption, not a torn
    write, and {!load} refuses it). *)

type session = {
  id : int;
  source : Jim_api.Protocol.instance_source;
  strategy : string;
  seed : int;
  fingerprint : string;
  transcript : Jim_core.Transcript.t;
      (** arity + surviving labels; [result] is always [None] (a finished
          session still accepts [Result]/[Get_transcript] calls, and the
          result is recomputed on replay) *)
}

type t = {
  next_id : int;  (** the session-id counter to resume from *)
  sessions : session list;  (** ascending id *)
}

val to_string : t -> string

val of_string : string -> (t, string) result
(** Every returned source is concrete. *)

val instances : t -> Instances.t
(** The instance table {!to_string} leaves behind: what a generation
    whose files are just this snapshot holds. *)

val write : ?io:Io.t -> string -> t -> (unit, string) result
(** [write path t]: atomic create-and-rename with the fsync dance above,
    through [io] (default {!Io.real}). *)

val load : ?io:Io.t -> string -> (t, string) result
