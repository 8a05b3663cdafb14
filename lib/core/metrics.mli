(** Process-wide performance counters for the strategy scoring engine:
    lattice meets computed, {!State.classify} evaluations, hits/misses of
    a pick's memo and per-pick wall time.  The engine counts each pick's
    work privately and adds it with one {!record} per pick (and one per
    answer's status refresh); the counters are atomic, so concurrent
    recorders lose nothing.  They are surfaced through {!Stats}, the TUI progress panel and the bench
    [compare] harness ([BENCH_strategies.json]). *)

type snapshot = {
  meets : int;          (** [Partition.meet]s computed by the scorer *)
  classify_calls : int; (** classifications actually evaluated *)
  cache_hits : int;     (** classifications answered from the pick's memo *)
  cache_misses : int;
  picks : int;          (** questions selected *)
  pick_time_ns : int;   (** total wall time spent selecting, ns *)
  last_pick_ns : int;   (** wall time of the most recent pick, ns *)
}

val reset : unit -> unit
(** Zero every counter (bench harnesses call this between strategies). *)

val snapshot : unit -> snapshot

(** {1 Snapshot arithmetic}

    The counters are process-global, so a server hosting many concurrent
    sessions cannot report {!snapshot} per session — it would mix every
    session's work.  Instead each request takes a snapshot before and
    after its engine work and accumulates the {!diff}; the sum is that
    session's own counters (up to work racing in from requests of other
    sessions that overlap the same window). *)

val zero : snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: field-wise difference — the work recorded
    between the two snapshots.  [last_pick_ns] is taken from [later]. *)

val add : snapshot -> snapshot -> snapshot
(** Field-wise sum ([last_pick_ns] is taken from the second argument, the
    more recent increment). *)

(** {1 Recording (called by the scorer and the session engine)} *)

val record :
  meets:int -> classify_calls:int -> cache_hits:int -> cache_misses:int -> unit
(** Add a batch of work to the counters. *)

val record_pick : ns:int -> unit

val now_ns : unit -> int
(** Wall clock in nanoseconds (microsecond resolution). *)

val time_pick : (unit -> 'a) -> 'a
(** Run a question selection, recording its wall time as one pick. *)

(** {1 Derived figures} *)

val hit_rate : snapshot -> float
(** Hits / (hits + misses); 0 when the cache was never consulted. *)

val avg_pick_ns : snapshot -> float

val to_string : snapshot -> string
val to_json : snapshot -> string
(** One-line JSON object (the [BENCH_strategies.json] per-strategy shape). *)

val pp : Format.formatter -> snapshot -> unit
