(* The sending half of journal-streaming replication.

   A primary attaches one replication target (a warm standby — directly
   in-process for tests, or behind a connection pool via {!Front}) and
   then calls [send] from its persist hook *after* {!Jim_store.Store.record}
   has made the event locally durable.  [send] returns only once the
   standby has acknowledged — and the standby acknowledges only after
   its own group commit — so an event the client sees acked is durable
   in two places.  A failed send raises {!Replication_failed}, which the
   wire layer turns into an error reply: the client is never told "ok"
   for an event the standby missed (semi-synchronous replication with a
   hard ack gate, not async shipping).

   Batching: concurrent senders do not each pay a standby round-trip.
   The first sender to arrive becomes the shipping leader; everyone who
   queues behind it while the leader's round-trip is in flight has their
   records drained into the next batch and shipped as one [Repl_batch]
   message, acknowledged by the standby's high-water mark after a single
   combined group commit.  The ack gate is unchanged — every waiter
   blocks until the batch holding its record is durably acked — but a
   batch of [n] records costs one round-trip instead of [n]. *)

module Journal = Jim_store.Journal
module Recovery = Jim_store.Recovery
module Store = Jim_store.Store
module Event = Jim_store.Event
module Io = Jim_store.Io

type target = {
  describe : string;
  install : gen:int -> snapshot:string option -> (unit, string) result;
  rotate : gen:int -> (unit, string) result;
  append_batch : string list -> (int * int, string) result;
  close : unit -> unit;
}

let of_standby stb =
  {
    describe = "in-process standby";
    install = (fun ~gen ~snapshot -> Standby.install stb ~gen ~snapshot);
    rotate = (fun ~gen -> Standby.rotate stb ~gen);
    append_batch = (fun records -> Standby.apply_batch stb records);
    close = (fun () -> Standby.close stb);
  }

exception Replication_failed of string

let () =
  Printexc.register_printer (function
    | Replication_failed msg -> Some ("Replication_failed: " ^ msg)
    | _ -> None)

type waiter = {
  record : string;  (* encoded JREC bytes *)
  mutable outcome : (unit, string) result option;
}

type t = {
  store : Store.t;
  target : target;
  lock : Mutex.t;
  cond : Condition.t;
  queue : waiter Queue.t;
  mutable sending : bool;  (* a leader's round-trip is in flight *)
  mutable gen_sent : int;
  mutable acked : int;  (* records acked by the target this generation *)
  mutable pending_records : int;  (* queued or in flight, not yet acked *)
  mutable pending_bytes : int;
}

let ( let* ) = Result.bind

let rec take n = function
  | [] -> ([], [])
  | rest when n = 0 -> ([], rest)
  | x :: rest ->
    let chunk, tail = take (n - 1) rest in
    (x :: chunk, tail)

(* Ship the baseline: the store's current snapshot (if its generation
   has one) plus every record already in the live journal — in chunked
   batches, so a long history costs a handful of round-trips — so the
   standby starts from exactly the primary's durable state. *)
let attach store target =
  let io = Store.io store in
  let dir = Store.dir store in
  let gen = Store.generation store in
  let snapshot =
    let path = Recovery.snapshot_path dir gen in
    if io.Io.exists path then
      match io.Io.read_file path with Ok text -> Some text | Error _ -> None
    else None
  in
  let* () = target.install ~gen ~snapshot in
  let jpath = Recovery.journal_path dir gen in
  let* acked =
    if not (io.Io.exists jpath) then Ok 0
    else
      let* records, _end_off = Journal.tail ~io jpath ~from_offset:0 in
      let encoded =
        List.map (fun (_off, payload) -> Journal.encode_record payload) records
      in
      let rec ship acked = function
        | [] -> Ok acked
        | rest ->
          let chunk, tail = take 64 rest in
          let* _gen, acked = target.append_batch chunk in
          ship acked tail
      in
      ship 0 encoded
  in
  Ok
    {
      store;
      target;
      lock = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      sending = false;
      gen_sent = gen;
      acked;
      pending_records = 0;
      pending_bytes = 0;
    }

let position t =
  Mutex.lock t.lock;
  let p = (t.gen_sent, t.acked) in
  Mutex.unlock t.lock;
  p

let lag t =
  Mutex.lock t.lock;
  let l = (t.pending_records, t.pending_bytes) in
  Mutex.unlock t.lock;
  l

let describe t = t.target.describe

(* Leader loop: called with the lock held and [t.sending] set.  Drains
   everything queued so far into one batch, ships it unlocked (rotating
   first if the store checkpointed since the last batch), then resolves
   every drained waiter under the lock and loops — records that queued
   during the round-trip form the next batch. *)
let rec drain t =
  if not (Queue.is_empty t.queue) then begin
    let batch = List.of_seq (Queue.to_seq t.queue) in
    Queue.clear t.queue;
    let gen = Store.generation t.store in
    let rotate_needed = gen <> t.gen_sent in
    Mutex.unlock t.lock;
    let result =
      try
        let* () = if rotate_needed then t.target.rotate ~gen else Ok () in
        t.target.append_batch (List.map (fun w -> w.record) batch)
      with e -> Error (Printexc.to_string e)
    in
    Mutex.lock t.lock;
    (match result with
    | Ok (_gen, acked) ->
      t.gen_sent <- gen;
      t.acked <- acked;
      List.iter (fun w -> w.outcome <- Some (Ok ())) batch
    | Error msg -> List.iter (fun w -> w.outcome <- Some (Error msg)) batch);
    List.iter
      (fun w ->
        t.pending_records <- t.pending_records - 1;
        t.pending_bytes <- t.pending_bytes - String.length w.record)
      batch;
    Condition.broadcast t.cond;
    drain t
  end

(* Called from the persist hook, after Store.record: the event is
   already locally durable and — if the store checkpointed at the start
   of this record — the store's generation may have advanced past
   [gen_sent], in which case the standby checkpoints into the same
   generation first, so the record lands in the same generation on both
   sides.  For a stream shipped in journal order the two directories
   are therefore byte-identical; under concurrent writers a batch may
   straddle a checkpoint, and each generation recovers the same
   sessions. *)
let send t ev =
  let record = Journal.encode_record (Event.to_string ev) in
  Mutex.lock t.lock;
  let w = { record; outcome = None } in
  Queue.push w t.queue;
  t.pending_records <- t.pending_records + 1;
  t.pending_bytes <- t.pending_bytes + String.length record;
  if t.sending then
    (* A leader's round-trip is in flight; it will drain us into the
       next batch.  Wait for our outcome. *)
    while w.outcome = None do
      Condition.wait t.cond t.lock
    done
  else begin
    t.sending <- true;
    Fun.protect
      ~finally:(fun () ->
        t.sending <- false;
        Condition.broadcast t.cond)
      (fun () -> drain t)
  end;
  let outcome = w.outcome in
  Mutex.unlock t.lock;
  match outcome with
  | Some (Ok ()) -> ()
  | Some (Error msg) ->
    raise (Replication_failed (t.target.describe ^ ": " ^ msg))
  | None ->
    (* unreachable: the leader resolves every drained waiter *)
    raise (Replication_failed (t.target.describe ^ ": record never shipped"))

let close t = t.target.close ()
