(** Crash recovery: turn a data directory back into replayable session
    state.

    {1 Directory layout}

    {v
    DIR/snapshot.<g>        generation-g snapshot (absent for g = 0)
    DIR/journal.<g>.wal     the journal whose baseline is snapshot g
    v}

    The store checkpoints by writing [snapshot.(g+1)] atomically, then
    creating a fresh [journal.(g+1).wal], then deleting the generation-g
    files — so after a crash the directory holds the highest generation
    with a complete snapshot plus at most some stale lower-generation
    files (which {!Store.open_dir} sweeps).

    {!load} is read-only (it reports a torn tail but does not cut it):
    it backs [jim journal inspect]/[verify] as well as {!Store.open_dir},
    which is the one caller that truncates. *)

type step =
  | Label of {
      cls : int option;
          (** class index when the event came from the journal; [None]
              for snapshot entries (recovery re-derives it from [sg]) *)
      sg : Jim_partition.Partition.t;
      label : Jim_core.State.label;
    }
  | Undo

type session = {
  id : int;
  arity : int;
  source : Jim_api.Protocol.instance_source;
      (** always concrete: instance references are resolved against the
          generation's files *)
  strategy : string;
  seed : int;
  fingerprint : string;
  steps : step list;  (** chronological: snapshot labels, then the tail *)
}

type t = {
  generation : int;
  next_id : int;  (** strictly greater than every id ever issued *)
  sessions : session list;  (** ascending id; ended sessions are gone *)
  journal_path : string;  (** the live journal (may not exist on disk) *)
  journal_records : int;  (** complete records replayed from the tail *)
  torn : (int * int) option;
      (** [(offset, bytes)] of a torn final record to cut, if any *)
  instances : Instances.t;
      (** the generation's instance table after its complete records —
          what a store appending to this journal starts from *)
}

val snapshot_session : session -> Snapshot.session
(** The session's surviving labels (steps folded: labels push, undos
    pop) as a snapshot entry — how {!Store.open_dir} seeds its
    {!Shadow} from recovered state. *)

val snapshot_path : string -> int -> string
(** [snapshot_path dir g] is [DIR/snapshot.<g>]. *)

val journal_path : string -> int -> string
(** [journal_path dir g] is [DIR/journal.<g>.wal]. *)

val load : ?io:Io.t -> string -> (t, string) result
(** Read-only recovery of [dir].  A missing directory or an empty one is
    a valid fresh store (generation 0, no sessions).  Errors: a corrupt
    snapshot, a mid-log CRC/framing failure (the message names the file
    and byte offset), an instance reference with no origin earlier in
    its generation (file and byte offset), or a journal event that
    contradicts the state built so far.  All reads go through [io]
    (default {!Io.real}). *)
