(** The versioned, serialisable facade over the inference engine: every
    way a client can drive a session, and every reply the service can
    give, as plain OCaml data with a stable JSON encoding.

    This is the boundary the demo paper's interactive front-end (Fig. 2–3)
    talks across, made explicit so sessions can live behind a socket:
    remote front-ends, crowd workers and load generators all speak these
    messages.  The codec is total in both directions — qcheck pins
    [decode ∘ encode = id] for every constructor — and errors are typed
    (a saturated server answers {!Server_busy}, never hangs or drops the
    line).

    Wire shape: one JSON object per line.  Requests carry
    [{"jim": version, "req": "<tag>", ...}], responses
    [{"jim": version, "resp": "<tag>", ...}].  Partitions travel in their
    canonical [Partition.to_string] block syntax (e.g. ["{0,2}{1}"]),
    labels as ["+"] / ["-"].

    Each message is one {!Codec.case} row in [protocol.ml] — its tag,
    its fields in wire order, and a constructor/projection pair — and
    both directions are derived from it.  Adding a message means adding
    its constructor here and one row there. *)

type instance_source =
  | Builtin of string
      (** A named built-in instance: ["flights"] (the paper's Fig. 1
          travel-agency table) or ["setcards"] (the Fig. 5 pairing
          scenario). *)
  | Synthetic of {
      n_attrs : int;
      n_tuples : int;
      domain : int;
      goal_rank : int;
      seed : int;
    }
      (** Server-side {!Jim_workloads.Synthetic.generate} with these
          parameters (deterministic in [seed], so a client can regenerate
          the instance — and its planted goal — locally). *)
  | Csv_inline of string
      (** CSV text shipped in the request (header row, types inferred). *)
  | Catalog of string
      (** An instance already in the server's catalog, named by the
          canonical CSV fingerprint a {!Register_instance} (or an
          earlier {!Started} on the same data) returned.  Starting from
          a fingerprint ships no data and re-derives nothing; a miss
          answers {!Unknown_instance}. *)

type question = {
  cls : int;  (** class index — what {!Answer} echoes back *)
  row : int;  (** representative row to show the user *)
  sg : Jim_partition.Partition.t;
}

type request =
  | Start_session of { source : instance_source; strategy : string; seed : int }
  | Get_question of { session : int }
      (** Idempotent: the question is a function of the session's seed
          and its labels ({!Jim_core.Session.pick_rng}), computed once
          and repeated until an answer or undo invalidates it. *)
  | Top_questions of { session : int; k : int }
      (** Greedy top-[k] ranking (mode 3 of Fig. 3).  Not idempotent:
          each call re-runs the strategy with masking. *)
  | Answer of { session : int; cls : int; label : Jim_core.State.label }
  | Undo of { session : int }
  | Explain of { session : int; cls : int }
  | Result of { session : int }
  | Stats of { session : int }
  | Get_transcript of { session : int }
      (** Export the session's audit log in the {!Jim_core.Transcript}
          text format — the same record of labels the durable store
          persists, so a client can archive or later [--resume] it. *)
  | End_session of { session : int }
  | Register_instance of { source : instance_source }
      (** Resolve [source] into the server-wide instance catalog without
          starting a session and answer {!Registered} with its handle.
          Idempotent: re-registering the same data (under any source
          that renders to the same canonical CSV) returns the same
          fingerprint and derives nothing.  Registering [Catalog fp]
          just looks [fp] up. *)
  | Catalog_stats
      (** Ask for the server's {!Catalog_info} counters (entries, bytes,
          pinned refcounts, hit/miss/eviction/derivation totals).  Sent
          to a router it fans out to every shard and the counters are
          summed. *)
  | Start_pinned of {
      session : int;
      source : instance_source;
      strategy : string;
      seed : int;
    }
      (** Shard-internal [Start_session] with a router-assigned session
          id.  The router allocates globally-unique ids, journals the
          placement, then forwards the start as [Start_pinned] so the
          shard's reply carries the global id unchanged.  A shard
          refuses an id already in use ({!Bad_request}) and bumps its
          own allocator past [session]; a router refuses the request
          from clients. *)
  | Repl_install of { gen : int; snapshot : string option }
      (** Replication control (primary → standby): reset the standby to
          generation [gen], writing [snapshot] verbatim (the primary's
          current {!Jim_store.Snapshot} text, [None] when the primary
          has no snapshot yet) and opening a store over it.  Sent once when the replication channel attaches; the
          primary then streams its existing journal records before any
          live ones.  Reply: {!Repl_ok}. *)
  | Repl_rotate of { gen : int }
      (** Replication control: the primary checkpointed into generation
          [gen].  The standby's store checkpoints into [gen] too, by
          the primary's own write path: for a stream shipped in journal
          order the files are byte-identical to the primary's; under
          concurrent writers each generation recovers the same
          sessions.  Idempotent for the current generation; a rotate
          before any install, or below the current generation, is
          refused.  Reply: {!Repl_ok}. *)
  | Repl_batch of { records : string list }
      (** Replication control (primary → standby): a group-commit batch
          of whole journal records ({!Jim_store.Journal.encode_record}
          bytes, in append order).  The standby applies the batch
          atomically — one combined journal append under a single fsync
          barrier — and replies {!Repl_ok} with the batch's high-water
          mark, so semi-sync replication costs one round-trip per batch
          instead of one per record.  Additive v1 extension: a primary
          only sends it where a single raw record went before. *)
  | Repl_status
      (** Ask a standby for its durable position; replies {!Repl_ok}
          with the generation and the count of group-committed records
          in it (the durable prefix).  Also answered by a {e primary}
          with an attached standby, which replies {!Repl_lag} instead —
          how far its standby trails — so a router can surface
          batching-induced lag in {!Ring_info}. *)
  | Promote
      (** Turn a standby into a serving shard: close the standby
          journal, run real recovery over the streamed journal (the same
          bit-identical replay path as a restart) and start serving the
          v1 protocol.  Reply: {!Promoted}. *)
  | Ring_status
      (** Ask a router for its consistent-hash ring membership and the
          number of placed sessions.  Reply: {!Ring_info}. *)
  | Labeler_attach of { session : int }
      (** Join session [session] as a crowd labeler.  Reply:
          {!Labeler_attached} with this labeler's id and the session's
          quorum size.  Only answered by a server started with crowd
          labeling enabled ([jim serve --votes K]); otherwise a
          {!Bad_request} with the pinned reason ["crowd labeling
          disabled (start the server with --votes)"]. *)
  | Labeler_poll of { session : int; labeler : int }
      (** Ask for the session's current voting round — the fan-out half
          of the question broadcast, pull-shaped so it rides the plain
          request/reply wire.  Reply: {!Crowd_question}.  Polling also
          drives the round's straggler deadline: an expired round is
          closed (decisive ballots) or re-asked (tie/absence) before the
          reply is built.  Idempotent — the underlying question is the
          session's pending question, a function of its seed and labels,
          so polling changes nothing. *)
  | Vote of { session : int; labeler : int; round : int; label : Jim_core.State.label }
      (** Cast labeler [labeler]'s ballot for voting round [round].
          Reply: {!Vote_ok}.  A ballot for a round that already closed
          (or a second ballot from the same labeler in one round) is
          refused softly — [counted = false] — so slow labelers resync
          by polling, not by erroring.  The ballot that completes the
          quorum closes the round: the aggregate label is absorbed into
          the engine and journaled as the session's {e only} event for
          the round, exactly as a direct {!Answer} would be. *)
  | Crowd_stats of { session : int }
      (** Ask for the session's crowd counters.  Reply: {!Crowd_info}. *)

type error =
  | Bad_request of string  (** malformed JSON, bad shape, bad arguments *)
  | Unknown_session of int  (** never existed, ended, or evicted by TTL *)
  | Unknown_strategy of string
  | Bad_source of string  (** unknown builtin / CSV that fails to parse *)
  | Unknown_instance of string
      (** a [Catalog fp] source named a fingerprint the catalog does not
          hold (never registered, or evicted) — re-register the data *)
  | Engine of Jim_core.Session.error
  | Server_busy of { active : int; max : int }
      (** the max-sessions backpressure reply *)
  | Unsupported_version of int
  | Shard_unavailable of string
      (** a router could not reach the shard holding the session and
          could not (or may not) transparently fail over — mutating
          requests are never retried after a promotion (at-most-once),
          so the client must decide; non-mutating requests are retried
          transparently and only fail when no standby exists *)
  | Unknown_labeler of int
      (** a {!Labeler_poll} or {!Vote} named a labeler id the session
          never attached (or the session was recovered — labeler
          registrations are in-memory, not journaled: re-attach) *)

type catalog_stats = {
  entries : int;  (** instances currently cataloged *)
  bytes : int;  (** canonical-CSV bytes those entries pin *)
  pinned : int;  (** live session references across all entries *)
  hits : int;  (** resolves served off an existing entry *)
  misses : int;  (** resolves that had to intern a new entry *)
  evictions : int;  (** refcount-zero entries dropped by the LRU cap *)
  fingerprints : int;  (** canonical-CSV fingerprint computations *)
  derivations : int;
      (** full instance derivations (sigclass grouping + round-0
          statuses); [misses >= derivations]: a new source naming
          already-cataloged data fingerprints but does not re-derive *)
}

type crowd_stats = {
  labelers : int;  (** labelers currently attached *)
  votes : int;  (** quorum size [K] — ballots that close a round *)
  weighted : bool;  (** accuracy-weighted aggregation enabled? *)
  rounds : int;  (** voting rounds closed with an absorbed aggregate *)
  paid_labels : int;  (** ballots counted across all closed rounds *)
  majority_flips : int;
      (** closed rounds where the aggregate overruled at least one
          dissenting ballot *)
  timeouts : int;
      (** rounds closed at the straggler deadline with fewer than [K]
          (but decisively unbalanced) ballots *)
  re_asks : int;
      (** rounds re-opened — deadline expiry on a tie, or the engine
          rejecting the aggregate as contradictory — discarding their
          ballots *)
}

type shard_status = {
  shard : string;  (** ring member name *)
  promoted : bool;  (** serving on a promoted standby (failed over)? *)
  lag : (int * int) option;
      (** replication lag as [(records, bytes)] not yet acknowledged by
          the shard's standby; [None] when the shard reported no lag
          information (no standby attached, or an older server) *)
}

type session_stats = {
  labeled : int;
  auto_determined : int;
  still_informative : int;
  total : int;
  version_space : float;
  scoring : Jim_core.Metrics.snapshot;
      (** this session's own engine counters, exact
          ({!Jim_core.Session.counters}, not the process-wide totals) *)
}

type response =
  | Started of {
      session : int;
      arity : int;
      classes : int;
      tuples : int;
      strategy : string;  (** canonical name, echoed back *)
    }
  | Question of question option  (** [None] iff the session is finished *)
  | Questions of question list
  | Answered of {
      finished : bool;
      asked : int;
      decided_classes : int;
      decided_tuples : int;
    }
  | Undone of { asked : int }
  | Explanation of { cls : int; status : Jim_core.State.status; text : string }
  | Outcome of Jim_core.Session.outcome  (** reply to {!Result} *)
  | Session_stats of session_stats  (** reply to {!Stats} *)
  | Transcript_text of { text : string }
      (** reply to {!Get_transcript}: [Jim_core.Transcript.to_string]
          output for the live engine *)
  | Registered of {
      fingerprint : string;
      arity : int;
      classes : int;
      tuples : int;
    }
      (** reply to {!Register_instance}: the catalog handle.  Pass the
          fingerprint as [Start_session]'s [Catalog] source. *)
  | Catalog_info of catalog_stats  (** reply to {!Catalog_stats} *)
  | Repl_ok of { gen : int; records : int }
      (** reply to the [Repl_*] controls: the standby's durable
          position — generation [gen] holds [records] group-committed
          journal records.  Also the ack for each streamed record; the
          primary acks its client only after {e both} its local group
          commit and this reply.  For a {!Repl_batch} the position is
          the batch's high-water mark — every record in the batch is
          durable. *)
  | Repl_lag of { records : int; bytes : int }
      (** reply to {!Repl_status} from a replicating {e primary}: how
          many records (and their encoded bytes) it has accepted but its
          standby has not yet acknowledged *)
  | Promoted of { sessions : int; generation : int }
      (** reply to {!Promote}: recovery replayed [sessions] live
          sessions from generation [generation] and the node now serves
          the full v1 protocol *)
  | Ring_info of { shards : shard_status list; sessions : int }
      (** reply to {!Ring_status}: ring members with failover state and
          per-shard replication lag (see {!shard_status}) plus the
          number of sessions with a journaled placement *)
  | Labeler_attached of { labeler : int; votes : int }
      (** reply to {!Labeler_attach}: this labeler's id (unique within
          the session) and the quorum size — poll, answer, repeat *)
  | Crowd_question of { round : int; question : question option }
      (** reply to {!Labeler_poll}: the current voting round and the
          question under vote.  [question = None] iff the session is
          finished — the labeler can detach.  Echo [round] back in the
          {!Vote}; a reply observed after the round closed simply fails
          the echo check and the ballot is not counted. *)
  | Vote_ok of { round : int; counted : bool; outcome : Jim_core.State.label option }
      (** reply to {!Vote}.  [round] is the session's {e current} round
          after processing — a resync hint.  [counted] says whether the
          ballot entered the tally (false: stale round or duplicate).
          [outcome] is [Some label] exactly when this ballot closed the
          round and [label] was absorbed and journaled. *)
  | Crowd_info of crowd_stats  (** reply to {!Crowd_stats} *)
  | Ended
  | Failed of error

val version : int
(** Protocol version, [1].  Carried as the ["jim"] field of every
    message; a mismatch decodes to {!Unsupported_version}. *)

val error_to_string : error -> string
(** One-line rendering of an {!error}.  The strings are stable — scripts
    and tests may match on them — and are, per constructor:
    - [Bad_request m] → ["bad request: <m>"]
    - [Unknown_session id] → ["unknown session <id>"]
    - [Unknown_strategy m] → [m] (already a full sentence listing the
      known strategy names)
    - [Bad_source m] → ["bad instance source: <m>"]
    - [Unknown_instance fp] → ["unknown instance <fp>"]
    - [Engine e] → [Jim_core.Session.error_to_string e]
    - [Server_busy {active; max}] →
      ["server busy: <active>/<max> sessions active"]
    - [Unsupported_version v] →
      ["unsupported protocol version <v> (this server speaks <version>)"]
    - [Shard_unavailable m] → ["shard unavailable: <m>"]
    - [Unknown_labeler id] → ["unknown labeler <id>"] *)

(** {1 Codec}

    [*_of_string] parses, checks the version and decodes; every failure
    is a typed {!error} so servers can serialise it straight back. *)

val request_to_string : request -> string
val request_of_string : string -> (request, error) result
val response_to_string : response -> string
val response_of_string : string -> (response, error) result

(** {1 Stable sub-encodings} (shared with the journal, the catalog key
    and snapshots) *)

val label : Jim_core.State.label Codec.t
val partition : Jim_partition.Partition.t Codec.t
val source : instance_source Codec.t
val outcome : Jim_core.Session.outcome Codec.t

val outcome_to_json : Jim_core.Session.outcome -> Json.t
(** [Codec.to_json outcome]. *)
