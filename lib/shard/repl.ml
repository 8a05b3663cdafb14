(* The sending half of journal-streaming replication.

   A primary attaches one replication target (a warm standby — directly
   in-process for tests, or behind a connection pool via {!Front}).  Its
   durability barrier ships each turn's events *after*
   {!Jim_store.Store.sync} has made them locally durable.  [ship]
   returns only once the standby has acknowledged — and the standby
   acknowledges only after its own fsync — so an event the client sees
   acked is durable in two places.  A failed ship raises
   {!Replication_failed}, which the node turns into error replies: the
   client is never told "ok" for an event the standby missed
   (semi-synchronous replication with a hard ack gate, not async
   shipping).

   Batching: a [ship] call's records go out as one [Repl_batch] per
   store generation, so a turn's records cost one round-trip.  A sender
   is owned by the thread that serves its node, so shipments never
   overlap. *)

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

type t = {
  store : Store.t;
  target : target;
  mutable gen_sent : int;
  mutable acked : int;  (* records acked by the target this generation *)
  mutable pending_records : int;  (* in the shipment in flight *)
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
      gen_sent = gen;
      acked;
      pending_records = 0;
      pending_bytes = 0;
    }

let position t = (t.gen_sent, t.acked)
let lag t = (t.pending_records, t.pending_bytes)

let describe t = t.target.describe

(* The records of [gen] at the head of [records], and the rest. *)
let rec same_gen gen = function
  | (g, record) :: rest when g = gen ->
    let batch, rest = same_gen gen rest in
    (record :: batch, rest)
  | rest -> ([], rest)

(* One batch per generation, in journal order, each after rotating the
   standby into its generation if it is not there yet — so a checkpoint
   between two shipped events falls at the same record on both sides,
   and a stream shipped in journal order leaves the two directories
   byte-identical.  The first failure stops the shipment: shipping later
   records past a gap would leave the standby's journal ahead of a
   hole. *)
let ship t evs =
  let records =
    List.map (fun (gen, ev) -> (gen, Journal.encode_record (Event.to_string ev))) evs
  in
  t.pending_records <- List.length records;
  t.pending_bytes <- List.fold_left (fun n (_, r) -> n + String.length r) 0 records;
  let rec go = function
    | [] -> Ok ()
    | (gen, _) :: _ as records ->
      let batch, rest = same_gen gen records in
      let* () =
        if gen = t.gen_sent then Ok ()
        else
          let* () = t.target.rotate ~gen in
          t.gen_sent <- gen;
          Ok ()
      in
      let* _gen, acked = t.target.append_batch batch in
      t.acked <- acked;
      go rest
  in
  let result = try go records with e -> Error (Printexc.to_string e) in
  t.pending_records <- 0;
  t.pending_bytes <- 0;
  match result with
  | Ok () -> ()
  | Error msg -> raise (Replication_failed (t.target.describe ^ ": " ^ msg))

(* Called from a persist hook after Store.record: the event is already
   locally durable, in the store's current generation. *)
let send t ev = ship t [ (Store.generation t.store, ev) ]

let close t = t.target.close ()
