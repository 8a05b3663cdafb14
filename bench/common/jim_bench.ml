(* The shared bench harness: the row type and JSON writer behind every
   BENCH_*.json, the kind table that says what each file holds and which
   of its metrics the gate compares, the gate itself, nearest-rank
   percentiles, the argv reader, scratch paths and the closed-loop wire
   client that the socket benches drive.

   The committed baselines are rendered by [write_json], so a change to
   a row's keys, their order or a value's format is a change to every
   baseline it touches. *)

module Json = Jim_api.Json
module P = Jim_api.Protocol
module Wire = Jim_server.Wire

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)

(* A value carries its print format: [S] is [%S], [B] [%b], [D] [%d],
   [F1]/[F3]/[F6] [%.1f]/[%.3f]/[%.6f], and [Raw] is JSON rendered
   elsewhere (a nested object). *)
type value =
  | S of string
  | B of bool
  | D of int
  | F1 of float
  | F3 of float
  | F6 of float
  | Raw of string

type row = (string * value) list

let render = function
  | S s -> Printf.sprintf "%S" s
  | B b -> string_of_bool b
  | D d -> string_of_int d
  | F1 f -> Printf.sprintf "%.1f" f
  | F3 f -> Printf.sprintf "%.3f" f
  | F6 f -> Printf.sprintf "%.6f" f
  | Raw s -> s

let num row key =
  match List.assoc key row with
  | D d -> float_of_int d
  | F1 f | F3 f | F6 f -> f
  | S _ | B _ | Raw _ -> invalid_arg ("Jim_bench.num: " ^ key)

(* Events per second; 0 for an empty window. *)
let rate n wall_s = if wall_s <= 0.0 then 0.0 else float_of_int n /. wall_s

(* ------------------------------------------------------------------ *)
(* File kinds                                                          *)

type direction = Higher | Lower

type kind = {
  generated_by : string;
  rows_field : string;
  params : string list;
      (* header fields, in file order: the run's parameters, which a
         baseline and a fresh run must share to be compared *)
  gated : (string * direction) list;
      (* [Higher]: bigger is better (throughput); [Lower]: smaller is
         better (latency).  A row is gated on each of these that its
         baseline or its fresh run carries (and refused if the other
         lacks it), and must carry at least one. *)
}

let strategies =
  { generated_by = "jim bench compare"; rows_field = "strategies";
    params = [ "workload" ]; gated = [ ("per_question_ms", Lower) ] }

let store =
  { generated_by = "jim bench store"; rows_field = "results";
    params = [ "payload_bytes" ]; gated = [ ("ops_per_s", Higher) ] }

let wire =
  { generated_by = "jim bench wire"; rows_field = "results"; params = [];
    gated = [ ("rps", Higher); ("p50_us", Lower) ] }

let catalog =
  { generated_by = "jim bench catalog"; rows_field = "results"; params = [];
    gated = [ ("starts_per_s", Higher); ("registers_per_s", Higher) ] }

let shard =
  { generated_by = "jim bench shard"; rows_field = "results"; params = [];
    gated = [ ("rps", Higher); ("p99_us", Lower) ] }

let load =
  { generated_by = "jim bench load"; rows_field = "results";
    params = [ "sync_us" ]; gated = [ ("rps", Higher); ("p99_us", Lower) ] }

let kinds = [ strategies; store; wire; catalog; shard; load ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_of_row row =
  "    {"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (render v)) row)
  ^ "}"

let to_json kind ~header rows =
  if List.map fst header <> kind.params then
    invalid_arg ("Jim_bench.to_json: header of " ^ kind.generated_by);
  String.concat ""
    ([ "{\n  \"schema_version\": 1,\n";
       Printf.sprintf "  \"generated_by\": %S,\n" kind.generated_by ]
    @ List.map (fun (k, v) -> Printf.sprintf "  %S: %s,\n" k (render v)) header
    @ [ Printf.sprintf "  %S: [\n%s\n  ]\n}\n" kind.rows_field
          (String.concat ",\n" (List.map json_of_row rows)) ])

let write_json kind ~path ?(header = []) rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json kind ~header rows))

(* A fixed-width table: headers + string rows. *)
let table headers rows =
  let widths =
    List.mapi
      (fun c h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row c)))
          (String.length h) rows)
      headers
  in
  let print_row row =
    print_string "  ";
    List.iter2 (fun w cell -> Printf.printf "%-*s  " w cell) widths row;
    print_newline ()
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

(* The human-readable view of [rows]: the [columns] keys, as written,
   blank where a row has no such key. *)
let print_rows columns rows =
  let cell = function S s -> s | v -> render v in
  table columns
    (List.map
       (fun row ->
         List.map (fun k -> Option.fold ~none:"" ~some:cell (List.assoc_opt k row)) columns)
       rows)

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)

type verdict = { lines : string list; checked : int; failures : int }

exception Refused of string

let refuse fmt = Printf.ksprintf (fun m -> raise (Refused m)) fmt

let str_field name v =
  match Json.member name v with
  | Some (Json.String s) -> s
  | _ -> refuse "missing string field %S" name

let num_field name row =
  match Json.member name row with
  | Some v -> (
    match Json.as_float v with
    | Ok f -> f
    | Error e -> refuse "field %S: %s" name e)
  | None -> refuse "row %s has no field %S" (str_field "name" row) name

let rows_of kind v =
  match Json.member kind.rows_field v with
  | Some (Json.List l) -> l
  | _ -> refuse "missing array field %S" kind.rows_field

let contains ~sub s =
  let sl = String.length sub and n = String.length s in
  let rec at i = i + sl <= n && (String.sub s i sl = sub || at (i + 1)) in
  at 0

(* Compare [fresh] against [baseline] row by row and metric by metric:
   a gated metric may not move the wrong way by more than [tolerance]
   (a fraction of the baseline).  Rows whose name contains a [skip]
   substring are left out; a baseline row missing from [fresh] fails.
   [Error] refuses the comparison outright: unreadable files, different
   kinds or different run parameters. *)
let gate ~tolerance ~skip ~baseline ~fresh =
  try
    let name = str_field "generated_by" baseline in
    let fresh_name = str_field "generated_by" fresh in
    if name <> fresh_name then
      refuse "kind mismatch: baseline is %S, fresh is %S" name fresh_name;
    let kind =
      match List.find_opt (fun k -> k.generated_by = name) kinds with
      | Some k -> k
      | None -> refuse "unknown generated_by %S" name
    in
    List.iter
      (fun p ->
        let show = Option.fold ~none:"(missing)" ~some:Json.to_string in
        let b = Json.member p baseline and f = Json.member p fresh in
        if b <> f then
          refuse "run parameter %S differs: baseline %s, fresh %s" p (show b)
            (show f))
      kind.params;
    let fresh_rows =
      List.map (fun r -> (str_field "name" r, r)) (rows_of kind fresh)
    in
    let lines = ref [] and checked = ref 0 and failures = ref 0 in
    let say fmt = Printf.ksprintf (fun l -> lines := l :: !lines) fmt in
    List.iter
      (fun row ->
        let name = str_field "name" row in
        if List.exists (fun sub -> contains ~sub name) skip then
          say "SKIP  %s" name
        else
          match List.assoc_opt name fresh_rows with
          | None ->
            incr failures;
            say "FAIL  %s: present in baseline, missing from fresh run" name
          | Some fresh_row ->
            let carried m = Json.member m row <> None || Json.member m fresh_row <> None in
            let gated = List.filter (fun (m, _) -> carried m) kind.gated in
            if gated = [] then refuse "row %s has no gated metric" name;
            List.iter
              (fun (metric, dir) ->
                incr checked;
                let base_v = num_field metric row in
                let fresh_v = num_field metric fresh_row in
                let ok, bound =
                  match dir with
                  | Higher ->
                    let bound = base_v *. (1.0 -. tolerance) in
                    (fresh_v >= bound, bound)
                  | Lower ->
                    let bound = base_v *. (1.0 +. tolerance) in
                    (fresh_v <= bound, bound)
                in
                if ok then
                  say "ok    %s %s: %.1f (baseline %.1f)" name metric fresh_v
                    base_v
                else begin
                  incr failures;
                  say
                    "FAIL  %s %s: %.1f vs baseline %.1f (bound %.1f, \
                     tolerance %.0f%%)"
                    name metric fresh_v base_v bound (tolerance *. 100.0)
                end)
              gated)
      (rows_of kind baseline);
    Ok { lines = List.rev !lines; checked = !checked; failures = !failures }
  with Refused m -> Error m

(* ------------------------------------------------------------------ *)
(* Latency samples                                                     *)

(* Nearest-rank percentile [p] (0-100) of [sorted] ns samples, in µs;
   0 for no samples. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    float_of_int sorted.(max 0 (min (n - 1) idx)) /. 1000.0

(* The timing columns of a latency row: [requests] over [wall_s], and
   the [pcts] percentiles of [sorted]. *)
let timing ~requests ~wall_s sorted pcts =
  [ ("requests", D requests); ("wall_s", F6 wall_s);
    ("rps", F1 (rate requests wall_s)) ]
  @ List.map
      (fun p -> (Printf.sprintf "p%d_us" p, F1 (percentile sorted (float_of_int p))))
      pcts

(* ------------------------------------------------------------------ *)
(* Command line: every bench takes [--quick] and [--out FILE]; unknown
   arguments are ignored.                                              *)

let quick () = Array.mem "--quick" Sys.argv

(* [--quick] runs a tenth of the full work. *)
let scale n = if quick () then max 1 (n / 10) else n

let flag name =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let out default = Option.value (flag "--out") ~default
let int_flag name default = Option.fold ~none:default ~some:int_of_string (flag name)

(* ------------------------------------------------------------------ *)
(* Scratch space                                                       *)

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "jim-bench-%d-%s" (Unix.getpid ()) name)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Closed-loop clients                                                 *)

(* [spawn n body] runs [body slot] for each slot on its own thread;
   [join] waits for all of them and returns their per-request latencies
   (ns) merged and sorted.  Where the clock starts is the caller's. *)
let spawn n body =
  let lat = Array.make n [||] in
  (lat, List.init n (fun slot -> Thread.create (fun () -> lat.(slot) <- body slot) ()))

let join (lat, threads) =
  List.iter Thread.join threads;
  let all = Array.concat (Array.to_list lat) in
  Array.sort compare all;
  all

let connect ?framing address =
  match Wire.connect ~retries:50 ?framing address with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ e)

let start_session client source seed =
  match Wire.call client (P.Start_session { source; strategy = "random"; seed }) with
  | Ok (P.Started { session; _ }) -> session
  | Ok other -> failwith ("unexpected reply: " ^ P.response_to_string other)
  | Error e -> failwith ("start: " ^ e)

(* One client: its own connection and session on the builtin flights
   instance, [requests] timed Stats calls. *)
let stats_client ~framing ~requests address _slot =
  let client = connect ~framing address in
  let session = start_session client (P.Builtin "flights") 7 in
  let line = P.request_to_string (P.Stats { session }) in
  let lat = Array.make requests 0 in
  for i = 0 to requests - 1 do
    let t0 = Jim_core.Metrics.now_ns () in
    (match Wire.call_line client line with
    | Ok _ -> ()
    | Error e -> failwith ("call: " ^ e));
    lat.(i) <- Jim_core.Metrics.now_ns () - t0
  done;
  ignore (Wire.call client (P.End_session { session }));
  Wire.close client;
  lat

(* [clients] Stats clients against [address], timed from spawn to the
   last join (connects and session starts included): the wall seconds
   and the sorted latencies. *)
let stats_load ~framing ~clients ~requests address =
  let t0 = Unix.gettimeofday () in
  let lat = join (spawn clients (stats_client ~framing ~requests address)) in
  (Unix.gettimeofday () -. t0, lat)
