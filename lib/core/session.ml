module Relation = Jim_relational.Relation

type error = Contradiction | Nothing_to_undo

let error_to_string = function
  | Contradiction ->
    "the answer contradicts the earlier labels (no join predicate is \
     consistent with all of them)"
  | Nothing_to_undo -> "nothing to undo"

type t = {
  n : int;
  classes : Sigclass.cls array;
  row_class : int array;  (** row number -> class index *)
  mutable st : State.t;
  mutable statuses : State.status array;
  mutable asked : int;
  mutable positives : Jim_partition.Partition.t list;
      (** signatures labelled +, newest first (witnesses for Explain) *)
  mutable history : (Jim_partition.Partition.t * State.label) list;
      (** every absorbed label, newest first (for transcripts) *)
  mutable snapshots : (State.t * Jim_partition.Partition.t list) list;
      (** states before each absorbed label, newest first (for undo) *)
}

let refresh_statuses eng =
  eng.statuses <-
    Array.map (fun (c : Sigclass.cls) -> State.classify_bits eng.st c.bits) eng.classes

(* Knowledge only grows, so certainty is monotone: a class decided under
   the old state stays decided (with the same polarity) under the new one
   — only the informative ones need reclassifying, each on its pair
   words, counted as one batch.  (The monotonicity is pinned down by the
   classify-vs-brute-force property test.) *)
let refresh_statuses_incremental eng =
  let classified = ref 0 in
  Array.iteri
    (fun i s ->
      if s = State.Informative then begin
        incr classified;
        eng.statuses.(i) <-
          State.classify_bits eng.st eng.classes.(i).Sigclass.bits
      end)
    eng.statuses;
  Metrics.record ~meets:0 ~classify_calls:!classified ~cache_hits:0
    ~cache_misses:0

(* [?statuses] and [?row_class] let a caller that already derived the
   instance (the server's catalog) warm-start the engine: classes and
   row_class are read-only and shared as-is, and the round-0 statuses are
   copied (the incremental refresh mutates them in place).  Without them
   the engine derives everything itself, exactly as before. *)
let of_classes ?statuses ?row_class ~n classes =
  let row_class =
    match row_class with
    | Some rc -> rc
    | None ->
      let total = Sigclass.total_rows classes in
      let rc = Array.make total 0 in
      Array.iteri
        (fun ci (c : Sigclass.cls) ->
          List.iter (fun r -> rc.(r) <- ci) c.rows)
        classes;
      rc
  in
  let eng =
    {
      n;
      classes;
      row_class;
      st = State.create n;
      statuses = (match statuses with Some s -> Array.copy s | None -> [||]);
      asked = 0;
      positives = [];
      history = [];
      snapshots = [];
    }
  in
  (match statuses with None -> refresh_statuses eng | Some _ -> ());
  eng

let create rel =
  let classes, row_class = Sigclass.classes rel in
  of_classes ~row_class ~n:(Relation.arity rel) classes

let state eng = eng.st
let classes eng = eng.classes
let status eng i = eng.statuses.(i)
let row_status eng r = eng.statuses.(eng.row_class.(r))

let informative_array eng =
  let count = ref 0 in
  Array.iter
    (fun s -> if s = State.Informative then incr count)
    eng.statuses;
  let out = Array.make !count 0 in
  let j = ref 0 in
  Array.iteri
    (fun i s ->
      if s = State.Informative then begin
        out.(!j) <- i;
        incr j
      end)
    eng.statuses;
  out

let informative eng = Array.to_list (informative_array eng)

let finished eng =
  Array.for_all (fun s -> s <> State.Informative) eng.statuses

let asked eng = eng.asked

let ctx_of eng memo rng =
  {
    Strategy.state = eng.st;
    classes = eng.classes;
    informative = informative_array eng;
    memo;
    rng;
  }

(* One pick: its work is counted in the memo and added to [Metrics]
   once. *)
let pick strat ctx =
  Metrics.time_pick (fun () ->
      let c = strat.Strategy.pick ctx in
      Scorer.record ctx.Strategy.memo;
      c)

let question eng strat rng = pick strat (ctx_of eng (Scorer.new_memo ()) rng)

let top_questions eng strat rng k =
  (* Mask already-proposed classes with a bool array over class indices
     (the informative sets are rebuilt per pick, so an O(k) membership
     scan per element would make this O(k^2)). *)
  let masked = Array.make (Array.length eng.classes) false in
  let base = informative_array eng in
  (* Every pick of the ranking scores the same state: one memo. *)
  let memo = Scorer.new_memo () in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let remaining =
        Array.of_seq
          (Seq.filter (fun i -> not masked.(i)) (Array.to_seq base))
      in
      let ctx = { (ctx_of eng memo rng) with Strategy.informative = remaining } in
      match pick strat ctx with
      | None -> List.rev acc
      | Some c ->
        masked.(c) <- true;
        go (c :: acc) (k - 1)
  in
  go [] k

(* Absorb a labelled signature that need not correspond to a class of the
   instance (transcript replay across instance revisions). *)
let absorb eng sg label =
  match State.add eng.st label sg with
  | Error `Contradiction -> Error Contradiction
  | Ok st' ->
    eng.snapshots <- (eng.st, eng.positives) :: eng.snapshots;
    eng.st <- st';
    eng.asked <- eng.asked + 1;
    if label = State.Pos then eng.positives <- sg :: eng.positives;
    eng.history <- (sg, label) :: eng.history;
    refresh_statuses_incremental eng;
    Ok ()

let answer eng c label = absorb eng eng.classes.(c).Sigclass.sg label

let history eng = List.rev eng.history

let undo eng =
  match (eng.snapshots, eng.history) with
  | [], _ | _, [] -> Error Nothing_to_undo
  | (st, positives) :: snaps, _ :: hist ->
    eng.st <- st;
    eng.positives <- positives;
    eng.snapshots <- snaps;
    eng.history <- hist;
    eng.asked <- eng.asked - 1;
    (* Statuses may loosen; the incremental refresh only tightens, so do
       the full recomputation here. *)
    refresh_statuses eng;
    Ok ()

let result eng = State.canonical eng.st

let explain_class eng c =
  Explain.explain eng.st ~positives:eng.positives eng.classes.(c).Sigclass.sg

let explain_row eng r = explain_class eng eng.row_class.(r)

type event = {
  step : int;
  cls : int;
  row : int;
  sg : Jim_partition.Partition.t;
  label : State.label;
  decided_after : int;
  tuples_decided_after : int;
  vs_after : float;
}

type outcome = {
  query : Jim_partition.Partition.t;
  events : event list;
  interactions : int;
  contradiction : bool;
}

let decided_totals eng =
  let classes_decided = ref 0 and tuples_decided = ref 0 in
  Array.iteri
    (fun i s ->
      if s <> State.Informative then begin
        incr classes_decided;
        tuples_decided := !tuples_decided + eng.classes.(i).Sigclass.card
      end)
    eng.statuses;
  (!classes_decided, !tuples_decided)

let run_engine ?(seed = 0) ~strategy ~oracle eng =
  let rng = Random.State.make [| seed |] in
  let events = ref [] in
  let rec loop step =
    match question eng strategy rng with
    | None ->
      {
        query = result eng;
        events = List.rev !events;
        interactions = eng.asked;
        contradiction = false;
      }
    | Some c ->
      let cls = eng.classes.(c) in
      let label = Oracle.label oracle cls.Sigclass.sg in
      (match answer eng c label with
      | Error _ ->
        {
          query = result eng;
          events = List.rev !events;
          interactions = eng.asked;
          contradiction = true;
        }
      | Ok () ->
        let decided, tuples_decided = decided_totals eng in
        events :=
          {
            step;
            cls = c;
            row = Sigclass.representative cls;
            sg = cls.Sigclass.sg;
            label;
            decided_after = decided;
            tuples_decided_after = tuples_decided;
            vs_after = Version_space.count eng.st;
          }
          :: !events;
        loop (step + 1))
  in
  loop 1

let run ?seed ~strategy ~oracle rel =
  run_engine ?seed ~strategy ~oracle (create rel)

let run_classes ?seed ~strategy ~oracle ~n classes =
  run_engine ?seed ~strategy ~oracle (of_classes ~n classes)
