module Relation = Jim_relational.Relation

type report = {
  mode : string;
  labels_given : int;
  auto_determined : int;
  total_tuples : int;
  query : Jim_partition.Partition.t;
}

let finish mode eng labels_given =
  let total_tuples = Sigclass.total_rows (Session.classes eng) in
  {
    mode;
    labels_given;
    auto_determined = total_tuples - labels_given;
    total_tuples;
    query = Session.result eng;
  }

(* Label a row's class; a contradiction is impossible with the sound
   oracles these simulations use, so it is an invariant violation. *)
let label_row eng oracle row =
  let classes = Session.classes eng in
  let ci =
    (* Row -> class: rows are grouped in classes; find the class holding
       this row. *)
    let rec go i =
      if i >= Array.length classes then
        invalid_arg "Interaction: row not in any class"
      else if List.mem row classes.(i).Sigclass.rows then i
      else go (i + 1)
    in
    go 0
  in
  let sg = classes.(ci).Sigclass.sg in
  let label = Oracle.label oracle sg in
  match Session.answer eng ci label with
  | Ok () -> ()
  | Error _ -> invalid_arg "Interaction: oracle contradicted itself"

let mode1_label_all ~order ~oracle rel =
  let eng = Session.create rel in
  let labels = ref 0 in
  List.iter
    (fun row ->
      (* She labels everything, even what the engine already knows: the
         engine only absorbs the informative ones (absorbing a certain
         label is a no-op for the state) but each costs her an
         interaction. *)
      incr labels;
      let ci_status = Session.row_status eng row in
      if ci_status = State.Informative then label_row eng oracle row)
    order;
  finish "1-label-all" eng !labels

let mode2_gray_out ~order ~oracle rel =
  let eng = Session.create rel in
  let labels = ref 0 in
  (try
     List.iter
       (fun row ->
         if Session.finished eng then raise Exit;
         if Session.row_status eng row = State.Informative then begin
           incr labels;
           label_row eng oracle row
         end)
       order
   with Exit -> ());
  finish "2-gray-out" eng !labels

let mode3_top_k ~k ?(seed = 0) ~strategy ~oracle rel =
  let eng = Session.create rel in
  let labels = ref 0 in
  let rec rounds () =
    if not (Session.finished eng) then begin
      let proposals =
        Session.top_questions eng strategy (Session.pick_rng ~seed eng) k
      in
      (* The whole round is labelled: answers given earlier in the round
         may make later proposals redundant, but the user cannot know —
         that extra cost is exactly what mode 4 shaves off. *)
      List.iter
        (fun ci ->
          incr labels;
          let sg = (Session.classes eng).(ci).Sigclass.sg in
          match Session.answer eng ci (Oracle.label oracle sg) with
          | Ok () -> ()
          | Error _ -> invalid_arg "Interaction: oracle contradicted itself")
        proposals;
      rounds ()
    end
  in
  rounds ();
  {
    (finish "3-top-k" eng !labels) with
    mode = Printf.sprintf "3-top-%d" k;
  }

let mode4_interactive ?seed ~strategy ~oracle rel =
  let outcome = Session.run ?seed ~strategy ~oracle rel in
  let total_tuples = Relation.cardinality rel in
  {
    mode = "4-interactive";
    labels_given = outcome.Session.interactions;
    auto_determined = total_tuples - outcome.Session.interactions;
    total_tuples;
    query = outcome.Session.query;
  }
