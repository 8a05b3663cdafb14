module Partition = Jim_partition.Partition

let goal_label goal sg =
  if Partition.refines goal sg then State.Pos else State.Neg

let state_after ~goal classes chosen =
  List.fold_left
    (fun st c ->
      let sg = classes.(c).Sigclass.sg in
      match State.add st (goal_label goal sg) sg with
      | Ok st' -> st'
      | Error `Contradiction ->
        invalid_arg "Teaching: goal labels are inconsistent")
    (State.create (Partition.size goal))
    chosen

let all_decided st classes =
  Array.for_all
    (fun (c : Sigclass.cls) -> State.classify_bits st c.bits <> State.Informative)
    classes

let is_teaching_set ~goal classes chosen =
  all_decided (state_after ~goal classes chosen) classes

let greedy ~goal classes =
  let n = Partition.size goal in
  let rec go st lesson =
    if all_decided st classes then List.rev lesson
    else begin
      (* Pick the informative class whose goal-label decides the most
         classes.  Ties break on first occurrence. *)
      let best = ref None in
      Array.iteri
        (fun c (cls : Sigclass.cls) ->
          if State.classify_bits st cls.bits = State.Informative then begin
            let st' = State.add_exn st (goal_label goal cls.sg) cls.sg in
            let decided = ref 0 in
            Array.iter
              (fun (c2 : Sigclass.cls) ->
                if State.classify_bits st' c2.bits <> State.Informative then
                  incr decided)
              classes;
            match !best with
            | Some (_, _, d) when d >= !decided -> ()
            | _ -> best := Some (c, st', !decided)
          end)
        classes;
      match !best with
      | None -> List.rev lesson (* unreachable: not all decided *)
      | Some (c, st', _) ->
        go st' ((c, goal_label goal classes.(c).Sigclass.sg) :: lesson)
    end
  in
  go (State.create n) []

let exact_minimum ?(max_size = 6) ~goal classes =
  let k = Array.length classes in
  let label c = goal_label goal classes.(c).Sigclass.sg in
  (* Subsets of [0..k-1] of given size, in lexicographic order. *)
  let rec subsets size from acc found =
    match !found with
    | Some _ -> ()
    | None ->
      if size = 0 then begin
        let chosen = List.rev acc in
        if is_teaching_set ~goal classes chosen then found := Some chosen
      end
      else
        for c = from to k - size do
          if !found = None then subsets (size - 1) (c + 1) (c :: acc) found
        done
  in
  let rec try_size size =
    if size > max_size || size > k then None
    else begin
      let found = ref None in
      subsets size 0 [] found;
      match !found with
      | Some chosen -> Some (List.map (fun c -> (c, label c)) chosen)
      | None -> try_size (size + 1)
    end
  in
  if is_teaching_set ~goal classes [] then Some [] else try_size 1
