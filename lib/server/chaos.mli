(** A wire chaos proxy: sits between a client and a [jim serve]
    upstream, forwarding the v1 protocol while injuring chosen
    connections — the transport-level counterpart of the store's fault
    filesystem.

    Both framings are relayed: a first line of [JIMBIN 1] is recognised
    as the binary handshake — the proxy acks it itself, dials the
    upstream in binary, and shuttles whole 4-byte-LE frames; any other
    first line starts the line relay.  Fault modes apply at reply
    granularity either way (a frame is torn into ragged chunks exactly
    like a JSON line).

    Faults are assigned {e deterministically} by connection index (the
    order connections are accepted), so a drill is reproducible: the same
    plan over the same client schedule injures the same sessions.  All
    damage respects one rule — a dropped connection dies at a {e reply
    boundary} — so a well-written client can always classify the failure
    (clean EOF = transport, never a half-parsed reply it must guess
    about).  Partial and trickled replies are delivered in full
    eventually; they stress buffering, not correctness.

    [jim chaos --socket L --upstream U --plan P] wraps {!start} as a
    standalone process for CI drills. *)

type plan = {
  drop : int option;
      (** every [n]th connection is cut after [drop_lines] replies,
          cleanly, at a line boundary *)
  drop_lines : int;  (** replies forwarded before the cut (default 2) *)
  trickle : int option;
      (** every [n]th connection gets its replies byte-at-a-time with
          [delay_ms] between bytes (slow-loris) *)
  partial : int option;
      (** every [n]th connection gets replies in small flushed chunks —
          partial JSON lines on the wire *)
  stall : int option;
      (** every [n]th connection sleeps [10 * delay_ms] before each
          reply, so other sessions' traffic overtakes it (reordered
          session streams at the server) *)
  delay_ms : int;  (** pacing for trickle/partial/stall (default 1) *)
}

val plan_none : plan

val plan_to_string : plan -> string

val plan_of_string : string -> (plan, string) result
(** Comma-separated [key=value]: [drop=N], [drop-lines=K], [trickle=N],
    [partial=N], [stall=N], [delay-ms=M]; [""]/["none"] is {!plan_none}. *)

type t

type stats = {
  connections : int;
  dropped : int;
  trickled : int;
  chopped : int;  (** connections given partial-line delivery *)
  stalled : int;
}

val start :
  ?log:(string -> unit) ->
  plan:plan ->
  listen:Wire.address ->
  upstream:Wire.address ->
  unit ->
  (t, string) result
(** Bind [listen] and serve until {!stop}.  Each accepted connection gets
    a thread and a fresh upstream connection ([upstream] need not be up
    until then).  [log] receives one line per injected fault. *)

val bound : t -> Wire.address
(** Like {!Wire.bound_address}: the actual address (port 0 resolved). *)

val stats : t -> stats

val wait : t -> unit
(** Block until the proxy stops accepting — after {!shutdown} or
    {!stop}, within a fraction of a second. *)

val shutdown : t -> unit
(** Ask the proxy to stop accepting, without waiting: it only sets a
    flag, so a signal handler may call it.  {!wait} then returns and the
    caller runs {!stop}. *)

val stop : t -> stats
(** Stop accepting, shut down every open client connection, join its
    thread and remove a Unix socket file; returns the final counters.
    A connection blocked on its upstream ends once the upstream replies
    or fails. *)
