external now_ns : unit -> int = "jimbench_monotonic_ns" [@@noalloc]

let percentile samples p =
  let n = Array.length samples in
  if p <= 0. || p >= 1. then invalid_arg "Measure.percentile";
  (* Nearest rank, guarded against [p *. n] landing a hair above an
     integer. *)
  let rank = int_of_float (ceil ((p *. float_of_int n) -. 1e-9)) in
  if n = 0 || n - rank < 10 then None
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    Some s.(max 0 (rank - 1))
  end

let median samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Measure.median";
  let s = Array.copy samples in
  Array.sort Float.compare s;
  s.((n + 1) / 2 - 1)

type span = {
  id : int;
  parent : int;
  name : string;
  start_ns : int;
  end_ns : int;
  key : string;
}

let self_time s children =
  let clip c = (max s.start_ns c.start_ns, min s.end_ns c.end_ns) in
  let intervals =
    List.filter (fun (a, b) -> b > a) (List.map clip children)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, min_int) intervals
  in
  s.end_ns - s.start_ns - covered

let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent s)
    spans;
  List.map (fun s -> (s, self_time s (Hashtbl.find_all kids s.id))) spans

let span_to_line s =
  Printf.sprintf "%d\t%d\t%s\t%d\t%d\t%s" s.id s.parent s.name s.start_ns
    s.end_ns s.key

let span_of_line line =
  match String.split_on_char '\t' line with
  | [ id; parent; name; start_ns; end_ns; key ] -> (
    match
      ( int_of_string_opt id,
        int_of_string_opt parent,
        int_of_string_opt start_ns,
        int_of_string_opt end_ns )
    with
    | Some id, Some parent, Some start_ns, Some end_ns ->
      Some { id; parent; name; start_ns; end_ns; key }
    | _ -> None)
  | _ -> None

let proc_field status field =
  let prefix = field ^ ":" in
  let plen = String.length prefix in
  List.find_map
    (fun line ->
      if String.length line > plen && String.sub line 0 plen = prefix then
        match
          String.split_on_char ' '
            (String.trim (String.sub line plen (String.length line - plen)))
          |> List.filter (( <> ) "")
        with
        | v :: _ -> int_of_string_opt v
        | [] -> None
      else None)
    (String.split_on_char '\n' status)

let ctx_switches status =
  match
    ( proc_field status "voluntary_ctxt_switches",
      proc_field status "nonvoluntary_ctxt_switches" )
  with
  | Some v, Some nv -> Some (v + nv)
  | _ -> None

(* Fields after the ")" closing the command name: state is field 3, utime
   and stime are fields 14 and 15. *)
let cpu_ticks stat =
  match String.rindex_opt stat ')' with
  | None -> None
  | Some i -> (
    let rest =
      String.sub stat (i + 1) (String.length stat - i - 1)
      |> String.split_on_char ' '
      |> List.filter (( <> ) "")
    in
    match (List.nth_opt rest 11, List.nth_opt rest 12) with
    | Some u, Some s -> (
      match (int_of_string_opt u, int_of_string_opt s) with
      | Some u, Some s -> Some (u + s)
      | _ -> None)
    | _ -> None)

