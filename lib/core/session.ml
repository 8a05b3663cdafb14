module Relation = Jim_relational.Relation

type error = Contradiction | Nothing_to_undo

let error_to_string = function
  | Contradiction ->
    "the answer contradicts the earlier labels (no join predicate is \
     consistent with all of them)"
  | Nothing_to_undo -> "nothing to undo"

(* One absorbed label and what it left behind: the engine's only record
   of a session.  [history], the Explain witnesses, [undo] and the
   outcome's events all read the list of these. *)
type entry = {
  step : int;  (** labels absorbed, this one included *)
  cls : int option;  (** the class answered; [None] for [absorb] *)
  sg : Jim_partition.Partition.t;
  label : State.label;
  after : State.t;  (** the state after it *)
  decided : int;  (** classes decided after it *)
  tuples_decided : int;  (** tuples (cardinality-weighted) decided after it *)
  mutable vs : float;
      (** version-space size after it; [nan] until an outcome asks *)
}

type t = {
  classes : Sigclass.cls array;
  row_class : int array;  (** row number -> class index *)
  initial : State.t;  (** the state before any label *)
  statuses : State.status array;  (** of the current state *)
  mutable decided : int;  (** classes not informative under [statuses] *)
  mutable tuples_decided : int;
  mutable labels : entry list;  (** newest first *)
  mutable contradiction : bool;  (** sticky: some label was refused *)
  mutable counters : Metrics.snapshot;  (** this engine's own work *)
}

let state eng = match eng.labels with [] -> eng.initial | e :: _ -> e.after

(* Reclassify under [st] the classes whose status [stale] selects, then
   count what is decided — the one decided-totals scan.  Returns the
   number of classifications made. *)
let refresh eng st stale =
  let classified = ref 0 and decided = ref 0 and tuples = ref 0 in
  Array.iteri
    (fun i (c : Sigclass.cls) ->
      if stale eng.statuses.(i) then begin
        incr classified;
        eng.statuses.(i) <- State.classify_bits st c.bits
      end;
      if eng.statuses.(i) <> State.Informative then begin
        incr decided;
        tuples := !tuples + c.card
      end)
    eng.classes;
  eng.decided <- !decided;
  eng.tuples_decided <- !tuples;
  !classified

(* Add a batch of work to the engine's own counters and to the
   process-wide totals. *)
let record eng d =
  eng.counters <- Metrics.add eng.counters d;
  Metrics.record d

(* [?statuses] and [?row_class] let a caller that already derived the
   instance (the server's catalog) warm-start the engine: classes and
   row_class are read-only and shared as-is, and the round-0 statuses are
   copied (the refresh mutates them in place).  Without them the engine
   derives everything itself. *)
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
  let initial = State.create n in
  let eng =
    {
      classes;
      row_class;
      initial;
      statuses =
        (match statuses with
        | Some s -> Array.copy s
        | None -> Array.make (Array.length classes) State.Informative);
      decided = 0;
      tuples_decided = 0;
      labels = [];
      contradiction = false;
      counters = Metrics.zero;
    }
  in
  let derive = Option.is_none statuses in
  ignore (refresh eng initial (fun _ -> derive));
  eng

let create rel =
  let classes, row_class = Sigclass.classes rel in
  of_classes ~row_class ~n:(Relation.arity rel) classes

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

let finished eng = eng.decided = Array.length eng.classes

let asked eng = match eng.labels with [] -> 0 | e :: _ -> e.step

let decided_totals eng = (eng.decided, eng.tuples_decided)
let counters eng = eng.counters

let ctx_of eng memo rng =
  {
    Strategy.state = state eng;
    classes = eng.classes;
    informative = informative_array eng;
    memo;
    rng;
  }

(* One pick: its work is counted in the memo and added to the counters
   once, with its wall time. *)
let pick eng strat ctx =
  let t0 = Metrics.now_ns () in
  let c = strat.Strategy.pick ctx in
  let ns = Metrics.now_ns () - t0 in
  record eng
    {
      (Scorer.take ctx.Strategy.memo) with
      picks = 1;
      pick_time_ns = ns;
      last_pick_ns = ns;
    };
  c

let question eng strat rng =
  pick eng strat (ctx_of eng (Scorer.new_memo ()) rng)

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
      match pick eng strat ctx with
      | None -> List.rev acc
      | Some c ->
        masked.(c) <- true;
        go (c :: acc) (k - 1)
  in
  go [] k

(* Knowledge only grows, so certainty is monotone: a class decided under
   the old state stays decided (with the same polarity) under the new one
   — only the informative ones need reclassifying, each on its pair
   words, counted as one batch.  (The monotonicity is pinned down by the
   classify-vs-brute-force property test.) *)
let push eng cls sg label =
  match State.add (state eng) label sg with
  | Error `Contradiction ->
    eng.contradiction <- true;
    Error Contradiction
  | Ok after ->
    let classified = refresh eng after (fun s -> s = State.Informative) in
    record eng { Metrics.zero with classify_calls = classified };
    eng.labels <-
      {
        step = asked eng + 1;
        cls;
        sg;
        label;
        after;
        decided = eng.decided;
        tuples_decided = eng.tuples_decided;
        vs = Float.nan;
      }
      :: eng.labels;
    Ok ()

let absorb eng sg label = push eng None sg label
let answer eng c label = push eng (Some c) eng.classes.(c).Sigclass.sg label

let history eng = List.rev_map (fun e -> (e.sg, e.label)) eng.labels

let undo eng =
  match eng.labels with
  | [] -> Error Nothing_to_undo
  | _ :: older ->
    eng.labels <- older;
    (* Statuses may loosen; the incremental refresh only tightens, so
       reclassify every class. *)
    ignore (refresh eng (state eng) (fun _ -> true));
    Ok ()

let result eng = State.canonical (state eng)

let explain_class eng c =
  let positives =
    List.filter_map
      (fun e -> if e.label = State.Pos then Some e.sg else None)
      eng.labels
  in
  Explain.explain (state eng) ~positives eng.classes.(c).Sigclass.sg

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

(* Entries absorbed by class become events, oldest first.  Each
   version-space count is made once, when an outcome first needs it, so
   an answer pays none and a repeated read pays nothing again. *)
let outcome eng =
  let event events (e : entry) =
    match e.cls with
    | None -> events
    | Some c ->
      if Float.is_nan e.vs then e.vs <- Version_space.count e.after;
      let cls = eng.classes.(c) in
      {
        step = e.step;
        cls = c;
        row = Sigclass.representative cls;
        sg = e.sg;
        label = e.label;
        decided_after = e.decided;
        tuples_decided_after = e.tuples_decided;
        vs_after = e.vs;
      }
      :: events
  in
  {
    query = result eng;
    events = List.fold_left event [] eng.labels;
    interactions = asked eng;
    contradiction = eng.contradiction;
  }

let run_engine ?(seed = 0) ~strategy ~oracle eng =
  let rng = Random.State.make [| seed |] in
  let rec loop () =
    match question eng strategy rng with
    | None -> ()
    | Some c -> (
      match answer eng c (Oracle.label oracle eng.classes.(c).Sigclass.sg) with
      | Ok () -> loop ()
      | Error _ -> ())
  in
  loop ();
  outcome eng

let run ?seed ~strategy ~oracle rel =
  run_engine ?seed ~strategy ~oracle (create rel)

let run_classes ?seed ~strategy ~oracle ~n classes =
  run_engine ?seed ~strategy ~oracle (of_classes ~n classes)
