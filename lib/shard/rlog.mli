(** Router log entries: the payloads the router journals (through
    {!Jim_store.Journal}, same JREC format as the session WAL) so ring
    membership and session placement survive a router restart.

    Each entry is one positional text line, a one-letter tag and its
    fields separated by single spaces:

    {v
    a <shard>              Member_added
    d <shard>              Member_removed
    p <session> <shard>    Placed
    r <session>            Released
    f <shard>              Failed_over
    v}

    The shard name comes last and runs to the end of the payload, so
    any name round-trips, spaces included.  Logs written before this
    form hold one compact JSON object per entry; {!of_string} still
    reads those, so an older router directory recovers.  The reverse
    does not hold: an older binary cannot read a log holding positional
    lines.

    [Placed] is journaled {e before} the start is forwarded to the
    shard: a crash between the two leaves a dead placement (the shard
    never started the session — requests to it answer
    [Unknown_session]), never an unroutable live session. *)

type entry =
  | Member_added of string
  | Member_removed of string
  | Placed of { session : int; shard : string }
  | Released of { session : int }
  | Failed_over of { shard : string }

val to_string : entry -> string

val of_string : string -> (entry, string) result
(** A payload starting with [{] is read as the older JSON form,
    anything else as the positional line.  Never raises: a damaged or
    short line is an [Error]. *)
