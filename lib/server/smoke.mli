(** Wire drills: oracle-driven clients that run full inference sessions
    against a running server and hold every outcome bit-for-bit to the
    in-process {!Jim_core.Session.run} with the same instance, seed and
    strategy.  Shared by [jim client] and the server test suites.

    Every session drill — {!run}, {!run_pipelined}, {!catalog_smoke},
    {!crash_start}, {!crash_resume} — is one state machine per session:
    each reply maps to the session's next request (start or resume
    check, then question/answer until no question is left, then result
    and end).  A connection carries one such session ({!run}) or several
    interleaved ones ({!run_pipelined}), with replies routed back in
    request order.  All drills connect through one helper, so each one
    honours [framing] ([Line] by default, or the negotiated [Binary]
    framing) and the per-reply [receive_timeout] (30 s by default). *)

type client_report = {
  seed : int;
  strategy : string;
  questions : int;
  ok : bool;
  dropped : bool;
      (** the failure was transport-level — connect refused, clean EOF,
          reset — rather than a protocol or outcome divergence.  Drops
          are expected under a chaos proxy ([jim chaos]) and can be
          tolerated; a divergence never is.  [false] when [ok]. *)
  detail : string;  (** empty when [ok]; the mismatch/failure otherwise *)
}

val synthetic_params : int -> Jim_workloads.Synthetic.params
(** The smoke workload's instance shape (5 attributes, 40 tuples, domain
    8, rank-2 goal) seeded [seed] — exposed so out-of-process drivers
    ([jim labeler]) can regenerate the same instance, and with it the
    goal oracle, from the seed alone. *)

val synthetic_source : int -> Jim_api.Protocol.instance_source
(** The inline [Synthetic] source for the instance [synthetic_params seed]. *)

val reference :
  instance_seed:int ->
  seed:int ->
  strategy:string ->
  Jim_core.Oracle.t * Jim_core.Session.outcome
(** The goal oracle of the synthetic instance seeded [instance_seed] and
    the in-process {!Jim_core.Session.run} over it with session seed
    [seed] — the bar every drill holds the wire to.  Raises
    [Invalid_argument] on an unknown strategy. *)

type fail = { transport : bool; msg : string }
(** A failure with its class: [transport] when the connection failed
    (refused connect, EOF, reset, receive timeout), [false] when the
    server spoke garbage or got the protocol or the inference wrong. *)

val run :
  ?clients:int ->
  ?framing:Wire.framing ->
  ?receive_timeout:float ->
  ?instance:int ->
  ?seed_offset:int ->
  address:Wire.address ->
  unit ->
  client_report list
(** [clients] (default 32) threads, each one connection carrying one
    session over a synthetic instance (deterministic in its seed, so the
    goal — and hence the oracle — is reconstructed locally), seeded
    [100 + seed_offset + i] ([seed_offset] defaults to 0) and
    alternating strategies (lookahead-entropy / random).
    A server or proxy that stalls past [receive_timeout] classifies as a
    transport drop ([dropped = true]), never a divergence and never a
    hang.  [instance] decouples the instance seed from the session seed:
    when given, every client drives the synthetic instance seeded
    [instance] (so they all resolve to one catalog entry) while the
    session seed still seeds the strategy's picks.  Reports come back sorted
    by seed; [questions] counts the answers the server acknowledged. *)

val run_pipelined :
  ?clients:int ->
  ?pipeline:int ->
  ?framing:Wire.framing ->
  ?receive_timeout:float ->
  ?seed_offset:int ->
  address:Wire.address ->
  unit ->
  client_report list
(** The pipelined drill behind [jim client --smoke --pipeline K]:
    [clients] (default 4) connections, each multiplexing [pipeline]
    (default 8) interleaved sessions — one in-flight request per
    session, so per-session ordering is trivially preserved, while the
    connection keeps up to [pipeline] requests in flight for the
    server's pipeline to chew on.  Replies come back in request order;
    a FIFO of session indices routes each to its session's state
    machine.  Session [k] of connection [c] is seeded
    [700 + seed_offset + c * pipeline + k].  Every session is held to the same
    bit-identity bar as {!run}.  Returns [clients * pipeline] reports,
    sorted by seed. *)

val catalog_smoke :
  ?clients:int ->
  ?instance:int ->
  ?framing:Wire.framing ->
  ?receive_timeout:float ->
  address:Wire.address ->
  unit ->
  (client_report list * Jim_api.Protocol.catalog_stats, string) result
(** The catalog drill: [Register_instance] the synthetic instance seeded
    [instance] (default 7) once, then [clients] (default 2) concurrent
    sessions each start by [Catalog fingerprint] — shipping no data —
    and are held to the usual bit-identity bar.  Returns the reports
    plus the server's catalog counters (callers assert [hits > 0] and
    [derivations = 1]).  [Error] for the drill's own plumbing
    (connect/register/stats failures); per-client failures are in the
    reports. *)

val crash_start :
  ?framing:Wire.framing ->
  address:Wire.address ->
  state_file:string ->
  ?clients:int ->
  ?receive_timeout:float ->
  unit ->
  client_report list
(** Phase one of the crash drill: [clients] (default 8) concurrent
    sessions each answer {e half} of their reference run's questions —
    every answer acknowledged by the server — then disconnect without
    ending the session.  What was acknowledged (seed, strategy, session
    id, answer count) is written to [state_file] for {!crash_resume},
    one [seed strategy session asked] line per parked session.
    The caller then SIGKILLs the server and restarts it over the same
    data directory. *)

val crash_resume :
  ?framing:Wire.framing ->
  address:Wire.address ->
  state_file:string ->
  ?receive_timeout:float ->
  unit ->
  (client_report list, string) result
(** Phase two: for each line of [state_file], check the restarted server
    still holds every acknowledged answer (via [Stats]), drive the
    session to completion, and require the outcome bit-identical to an
    uninterrupted local {!Jim_core.Session.run} — the durability
    invariant the store exists to provide.  Reports follow the file's
    line order; a line that does not parse is a failed report
    ([bad state line: ...]) in its place.  [Error] only when
    [state_file] cannot be read. *)

val busy_check :
  ?framing:Wire.framing ->
  ?receive_timeout:float ->
  address:Wire.address ->
  fill:int ->
  unit ->
  (unit, string) result
(** Open [fill] sessions without ending them, then check that one more
    [Start_session] is refused with [Server_busy] (the server must reply,
    not hang — the receive timeout turns a hang into an error).  Ends
    every session before returning.  Call against a server whose
    [max_sessions] equals [fill]. *)

(** {1 Crowd drill} *)

type labeler_spec = {
  error_rate : float;
      (** probability each of this labeler's answers is flipped *)
  labeler_seed : int;  (** seeds the noise stream — which answers are
                           wrong is deterministic, not schedule-dependent *)
  labeler_address : Wire.address option;
      (** connect here instead of the controller's address — e.g. through
          a [jim chaos] proxy to make this labeler slow or absent *)
}

val perfect_labeler : int -> labeler_spec
(** [error_rate = 0.] at the controller's address. *)

type crowd_report = {
  creport : client_report;
      (** [questions] is the count of closed voting rounds; for a
          perfect crowd (every [error_rate] zero) [ok] requires the
          outcome bit-identical to the noiseless in-process run, for a
          noisy crowd it only requires clean convergence — judge [got]
          against [reference] yourself *)
  crowd : Jim_api.Protocol.crowd_stats option;
      (** the server's vote counters, harvested just before ending the
          session *)
  got : Jim_core.Session.outcome option;  (** the wire outcome *)
  reference : Jim_core.Session.outcome;
      (** the noiseless local {!Jim_core.Session.run} — under noise the
          transcripts may differ while the inferred [query] still
          converges to it *)
}

val run_labeler :
  ?framing:Wire.framing ->
  ?receive_timeout:float ->
  ?poll_interval:float ->
  address:Wire.address ->
  session:int ->
  oracle:Jim_core.Oracle.t ->
  unit ->
  (int * int, fail) result
(** One labeler client, driven to session completion: attach, then loop
    poll → (new round? draw one label from [oracle], vote) → repeat,
    sleeping [poll_interval] (default 2 ms) between polls of an
    already-voted round.  Exactly one oracle draw per round seen, so a
    seeded noisy oracle yields a deterministic error pattern.  Returns
    [(cast, counted)] — ballots sent vs. ballots the server counted
    (rounds can close by quorum or deadline before a slow ballot lands).
    Also the engine behind [jim labeler]. *)

type crowd_harvest = {
  converged : (bool, fail) result;
      (** [Ok false]: the deadline passed with a question still pending *)
  counters : Jim_api.Protocol.crowd_stats option;
      (** the server's vote counters, harvested just before ending *)
  outcome : Jim_core.Session.outcome option;  (** the wire outcome *)
}

val crowd_control :
  ?framing:Wire.framing ->
  ?receive_timeout:float ->
  ?poll_interval:float ->
  ?deadline:float ->
  ?on_start:(int -> unit) ->
  address:Wire.address ->
  seed:int ->
  strategy:string ->
  unit ->
  (crowd_harvest, fail) result
(** The controller half of a crowd drill: start the synthetic session
    seeded [seed], hand its id to [on_start] (where labelers get
    spawned or announced), poll [Get_question] every [poll_interval]
    (default 2 ms) until none is pending or [deadline] (default 120 s)
    passes, then harvest [Crowd_stats] and [Result] and end the
    session.  [Error] only when the session could not be started. *)

val crowd_run :
  ?framing:Wire.framing ->
  ?receive_timeout:float ->
  ?poll_interval:float ->
  ?deadline:float ->
  address:Wire.address ->
  seed:int ->
  strategy:string ->
  labelers:labeler_spec list ->
  unit ->
  crowd_report
(** The full crowd drill against a server started with crowd labeling:
    {!crowd_control} the synthetic session seeded [seed], spawn one
    {!run_labeler} thread per spec as it starts, wait for convergence (pending question gone) within
    [deadline] (default 120 s) and harvest outcome + vote counters.
    Divergence, a labeler's protocol failure, or missing the deadline
    all fail the report; labeler {e transport} failures are tolerated
    (that is what a chaos proxy manufactures) as long as the session
    still converges. *)

val outcome_equal : Jim_core.Session.outcome -> Jim_core.Session.outcome -> bool
(** Structural equality, float fields compared exactly — both sides are
    computed by the same code path, so bit-identical is the bar. *)
