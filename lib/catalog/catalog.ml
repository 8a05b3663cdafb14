module P = Jim_api.Protocol
module Relation = Jim_relational.Relation
open Jim_core

(* The server-wide instance catalog.

   Everything derivable from the instance alone — the relation, its
   signature-class grouping (with each class's pair words), the row →
   class map and the round-0 statuses — is immutable once derived, so
   one copy can back every session on that instance.  An [entry] is that
   copy; the catalog interns entries under the canonical CSV fingerprint
   (the same one the durable store journals for restore-drift detection)
   and hands out refcounted references.

   Concurrency: all bookkeeping (both index tables, the counters, the
   refcounts) lives under one mutex.  Derivation also runs under it —
   cold misses briefly serialise, which is the price of deriving each
   instance exactly once; warm resolves only touch the tables.  The
   entry payload needs no lock at all: sessions only read it (each pick
   scores on its own memo, see {!Scorer.memo}). *)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

type entry = {
  fingerprint : string;
  relation : Relation.t;
  schema : Jim_relational.Schema.t;
  arity : int;
  tuples : int;
  bytes : int;
  classes : Sigclass.cls array;
  row_class : int array;
  initial_statuses : State.status array;
  origin : P.instance_source;
}

type slot = {
  entry : entry;
  mutable refs : int;
  mutable last_used : float;  (* only meaningful while [refs = 0] *)
  mutable sources : P.instance_source list;
      (* every source aliasing this entry, for eviction *)
}

type t = {
  lock : Mutex.t;
  by_fp : (string, slot) Hashtbl.t;
  by_source : (P.instance_source, string) Hashtbl.t;
      (* concrete source -> fingerprint; keyed by the source value the
         request carried, so an inline text is hashed and compared, never
         re-encoded or copied *)
  max_entries : int;
  now : unit -> float;
  mutable bytes : int;
  mutable pinned : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable fingerprints : int;
  mutable derivations : int;
}

let create ?(max_entries = 64) ?(now = Unix.gettimeofday) () =
  {
    lock = Mutex.create ();
    by_fp = Hashtbl.create 16;
    by_source = Hashtbl.create 16;
    max_entries = max 1 max_entries;
    now;
    bytes = 0;
    pinned = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    fingerprints = 0;
    derivations = 0;
  }

(* ------------------------------------------------------------------ *)
(* Concrete sources (moved here from Service so recovery, the wire and
   the catalog all resolve through the same table).                     *)

let relation_of :
    P.instance_source ->
    (Relation.t * Jim_relational.Schema.t, P.error) result = function
  | P.Builtin name -> (
    match String.lowercase_ascii name with
    | "flights" ->
      Ok (Jim_workloads.Flights.instance, Jim_workloads.Flights.schema)
    | "setcards" ->
      Ok
        ( Jim_workloads.Setcards.pair_instance (),
          Jim_workloads.Setcards.pair_schema )
    | other ->
      Error
        (P.Bad_source
           (Printf.sprintf "unknown builtin %S (try: flights, setcards)" other)))
  | P.Synthetic { n_attrs; n_tuples; domain; goal_rank; seed } -> (
    let params =
      { Jim_workloads.Synthetic.n_attrs; n_tuples; domain; goal_rank; seed }
    in
    match Jim_workloads.Synthetic.generate params with
    | inst ->
      Ok
        ( inst.Jim_workloads.Synthetic.relation,
          inst.Jim_workloads.Synthetic.schema )
    | exception Invalid_argument msg -> Error (P.Bad_source msg))
  | P.Csv_inline text -> (
    match Jim_relational.Csv.load_string ~name:"inline" text with
    | Ok rel -> Ok (rel, Relation.schema rel)
    | Error msg -> Error (P.Bad_source msg))
  | P.Catalog fp ->
    (* Callers handle [Catalog] before asking for a relation. *)
    Error (P.Unknown_instance fp)

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)

let derive t origin rel schema ~csv ~fp =
  t.derivations <- t.derivations + 1;
  let n = Relation.arity rel in
  let classes, row_class = Sigclass.classes rel in
  let st0 = State.create n in
  let initial_statuses =
    Array.map (fun (c : Sigclass.cls) -> State.classify_bits st0 c.Sigclass.bits) classes
  in
  {
    fingerprint = fp;
    relation = rel;
    schema;
    arity = n;
    tuples = Relation.cardinality rel;
    bytes = String.length csv;
    classes;
    row_class;
    initial_statuses;
    origin;
  }

let acquire t slot =
  slot.refs <- slot.refs + 1;
  t.pinned <- t.pinned + 1;
  slot.last_used <- t.now ();
  Ok slot.entry

(* Evict refcount-zero entries, least-recently-released first, until the
   cap holds.  Pinned entries are never evicted, so a fully-pinned
   catalog may transiently exceed the cap. *)
let evict_to_cap t =
  let evict_one () =
    let victim =
      Hashtbl.fold
        (fun _ s acc ->
          if s.refs > 0 then acc
          else
            match acc with
            | Some best when best.last_used <= s.last_used -> acc
            | _ -> Some s)
        t.by_fp None
    in
    match victim with
    | None -> false
    | Some s ->
      Hashtbl.remove t.by_fp s.entry.fingerprint;
      List.iter (Hashtbl.remove t.by_source) s.sources;
      t.bytes <- t.bytes - s.entry.bytes;
      t.evictions <- t.evictions + 1;
      true
  in
  while Hashtbl.length t.by_fp > t.max_entries && evict_one () do
    ()
  done

(* A miss on a concrete source: resolve it, fingerprint it — once; this
   is where the old per-session [Store.fingerprint] call moved — and
   either alias an existing entry (same data under a new source) or
   intern a fresh one. *)
let intern t source =
  t.misses <- t.misses + 1;
  match relation_of source with
  | Error e -> Error e
  | Ok (rel, schema) -> (
    t.fingerprints <- t.fingerprints + 1;
    let csv = Jim_store.Store.canonical_csv rel in
    let fp = Jim_store.Store.fingerprint_of_csv csv in
    match Hashtbl.find_opt t.by_fp fp with
    | Some slot ->
      slot.sources <- source :: slot.sources;
      Hashtbl.replace t.by_source source fp;
      acquire t slot
    | None ->
      let entry = derive t source rel schema ~csv ~fp in
      let slot =
        { entry; refs = 0; last_used = t.now (); sources = [ source ] }
      in
      Hashtbl.replace t.by_fp entry.fingerprint slot;
      Hashtbl.replace t.by_source source entry.fingerprint;
      t.bytes <- t.bytes + entry.bytes;
      (* pin before trimming: the fresh slot must not be its own LRU
         victim *)
      let r = acquire t slot in
      evict_to_cap t;
      r)

let resolve t source =
  with_lock t.lock @@ fun () ->
  match source with
  | P.Catalog fp -> (
    match Hashtbl.find_opt t.by_fp fp with
    | Some slot ->
      t.hits <- t.hits + 1;
      acquire t slot
    | None ->
      t.misses <- t.misses + 1;
      Error (P.Unknown_instance fp))
  | concrete -> (
    match Hashtbl.find_opt t.by_source concrete with
    | Some fp -> (
      match Hashtbl.find_opt t.by_fp fp with
      | Some slot ->
        t.hits <- t.hits + 1;
        acquire t slot
      | None ->
        (* Defensive: eviction removes source keys, so this is dead in
           practice; self-heal if the indexes ever disagree. *)
        Hashtbl.remove t.by_source concrete;
        intern t concrete)
    | None -> intern t concrete)

let release t entry =
  with_lock t.lock @@ fun () ->
  match Hashtbl.find_opt t.by_fp entry.fingerprint with
  | None -> ()  (* already evicted: nothing to unpin *)
  | Some slot ->
    if slot.refs > 0 then begin
      slot.refs <- slot.refs - 1;
      t.pinned <- t.pinned - 1;
      if slot.refs = 0 then slot.last_used <- t.now ()
    end

let engine (e : entry) =
  Session.of_classes ~statuses:e.initial_statuses
    ~row_class:e.row_class ~n:e.arity e.classes

let stats t =
  with_lock t.lock @@ fun () ->
  {
    P.entries = Hashtbl.length t.by_fp;
    bytes = t.bytes;
    pinned = t.pinned;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    fingerprints = t.fingerprints;
    derivations = t.derivations;
  }

let stats_to_string (s : P.catalog_stats) =
  Printf.sprintf
    "catalog: %d entries (%d pinned, %d bytes), %d hits / %d misses, %d \
     evictions, %d fingerprints, %d derivations"
    s.entries s.pinned s.bytes s.hits s.misses s.evictions s.fingerprints
    s.derivations
