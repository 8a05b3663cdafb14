(** The state-mutating protocol events a durable server journals: exactly
    the operations that change what a later {!Recovery} must rebuild.
    Read-only requests (questions, explanations, stats) never reach the
    log.

    Payload encoding is one positional text line per event, a one-letter
    tag and its fields separated by single spaces, in the style of a
    snapshot's [session] line:

    {v
    s <session> <arity> <strategy> <seed> <fingerprint> <source>
    a <session> <class> <+|-> <signature>
    u <session>
    e <session>
    v}

    [<source>] is the wire protocol's compact JSON for the instance
    source; it comes last, so inline CSV text with spaces or newlines
    (escaped by the JSON) round-trips.  [<signature>] is
    {!Jim_partition.Partition.to_string}.  A strategy name and a
    fingerprint are single tokens (canonical names, hex).

    Journals written before this form hold one compact JSON object per
    event; {!of_string} still reads those, so an older data directory
    recovers.  The reverse does not hold: an older binary cannot read a
    journal holding positional lines. *)

type t =
  | Started of {
      session : int;
      arity : int;  (** attribute count (the transcript arity) *)
      source : Jim_api.Protocol.instance_source;
      strategy : string;  (** canonical {!Jim_core.Strategy} name *)
      seed : int;  (** the session RNG seed — replay re-derives the RNG *)
      fingerprint : string;
          (** {!Store.fingerprint} of the resolved instance, checked on
              recovery so a drifted builtin/synthetic source fails loudly *)
    }
  | Answered of {
      session : int;
      cls : int;  (** class index answered *)
      sg : Jim_partition.Partition.t;
          (** the class signature — lets snapshots compact to the
              transcript format without rebuilding the instance *)
      label : Jim_core.State.label;
    }
  | Undone of { session : int }
  | Ended of { session : int }
      (** explicit [End_session] or idle-TTL eviction *)

val session : t -> int

val to_string : t -> string
(** The positional line (never contains a newline). *)

val of_string : string -> (t, string) result
(** A payload starting with [{] is read as the older JSON form,
    anything else as the positional line.  Never raises: a damaged or
    short line (a field dropped, the line cut) is an [Error]. *)
