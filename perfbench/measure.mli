(** The benchmark's own measurement code: clock, percentiles, span self
    time and [/proc] parsing.  Kept apart from [jimbench] and [jimtrace]
    so each piece is unit-tested ([test_measure.ml]). *)

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds. *)

(** {1 Percentiles} *)

val percentile : float array -> float -> float option
(** [percentile samples p] for [p] in [(0, 1)]: the nearest-rank
    percentile of [samples] (any order; a failed request is recorded as
    [infinity], so it counts as missing every latency limit).  [None]
    unless at least ten samples lie beyond the rank — a p99 needs 1,000
    samples, a p90 100, a p50 20. *)

val median : float array -> float
(** Nearest-rank median with no sample-count rule (for repeated set-up
    timings).  Raises [Invalid_argument] on an empty array. *)

(** {1 Spans} *)

type span = {
  id : int;  (** unique within one dump *)
  parent : int;  (** [-1] for a root *)
  name : string;
  start_ns : int;
  end_ns : int;
  key : string;  (** request key shared by every span of one request *)
}

val self_time : span -> span list -> int
(** [self_time s children]: [s]'s duration minus the part of its
    interval that the union of [children] covers (children may overlap
    each other or stick out of [s]; only the covered part of [s]'s own
    interval counts). *)

val self_times : span list -> (span * int) list
(** Every span paired with its self time, children found by [parent]. *)

val span_to_line : span -> string
val span_of_line : string -> span option
(** Tab-separated dump format, one span per line. *)

(** {1 /proc} *)

val proc_field : string -> string -> int option
(** [proc_field text "VmHWM"]: the number after ["VmHWM:"] in a
    [/proc/<pid>/status] or [/proc/<pid>/io] text (a [kB] suffix is
    ignored, not converted). *)

val ctx_switches : string -> int option
(** Voluntary plus involuntary context switches from a status text. *)

val cpu_ticks : string -> int option
(** [utime + stime] (clock ticks) from a [/proc/<pid>/stat] line; the
    command name may contain spaces and parentheses. *)
