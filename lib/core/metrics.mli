(** Performance counters for the strategy scoring engine: lattice meets
    computed, {!State.classify} evaluations, hits/misses of a pick's memo
    and per-pick wall time.  Each engine ({!Session.t}) counts its own
    work in a {!snapshot} and adds every batch — one per pick, one per
    answer's status refresh — to the process-wide totals with {!record};
    the totals are atomic, so concurrent recorders lose nothing.  An
    engine's own counters are surfaced through {!Stats} (the TUI
    progress panel, the server's per-session stats), the totals through
    the bench [compare] harness ([BENCH_strategies.json]). *)

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
(** The process-wide totals. *)

(** {1 Snapshot arithmetic}

    A snapshot is also a batch of work: an engine's own counters are the
    {!add} of its batches, and the work recorded process-wide between
    two {!snapshot}s is their {!diff} (which, with several engines
    running at once, mixes their work). *)

val zero : snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: field-wise difference — the work recorded
    between the two snapshots.  [last_pick_ns] is taken from [later]. *)

val add : snapshot -> snapshot -> snapshot
(** Field-wise sum; [last_pick_ns] is the second argument's (the more
    recent batch) when that batch holds a pick, else the first's. *)

(** {1 Recording} *)

val record : snapshot -> unit
(** Add a batch of work to the process-wide totals (its [last_pick_ns]
    replaces theirs when the batch holds a pick).  The one way work
    reaches them: the session engine calls it per pick and per status
    refresh, {!Scorer.record} per memo. *)

val now_ns : unit -> int
(** Wall clock in nanoseconds (microsecond resolution). *)

(** {1 Derived figures} *)

val hit_rate : snapshot -> float
(** Hits / (hits + misses); 0 when the cache was never consulted. *)

val avg_pick_ns : snapshot -> float

val to_string : snapshot -> string
val to_json : snapshot -> string
(** One-line JSON object (the [BENCH_strategies.json] per-strategy shape). *)
