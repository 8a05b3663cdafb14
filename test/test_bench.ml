(* The shared bench harness against the committed baselines: every
   BENCH_*.json re-renders byte for byte through the one writer, passes
   the gate against itself, and the gate fails or refuses the runs it
   should. *)

module B = Jim_bench
module Json = Jim_api.Json

let read path = In_channel.with_open_bin path In_channel.input_all

let files =
  [
    ("../BENCH_strategies.json", B.strategies);
    ("../BENCH_store.json", B.store);
    ("../BENCH_wire.json", B.wire);
    ("../BENCH_catalog.json", B.catalog);
    ("../BENCH_shard.json", B.shard);
    ("../BENCH_load.json", B.load);
  ]

let parse text =
  match Json.of_string text with Ok v -> v | Error e -> failwith e

let fields = function Json.Obj f -> f | _ -> failwith "expected an object"

(* The print format of each float column of the committed files. *)
let value key = function
  | Json.String s -> B.S s
  | Json.Bool b -> B.B b
  | Json.Int d -> B.D d
  | Json.Float f -> (
    match key with
    | "wall_s" | "per_question_ms" -> B.F6 f
    | "interactions_avg" | "mb_per_s" -> B.F3 f
    | _ -> B.F1 f)
  | v -> B.Raw (Json.to_string v)

let rerender kind json =
  let decode obj = List.map (fun (k, v) -> (k, value k v)) (fields obj) in
  let header =
    List.filter (fun (k, _) -> List.mem k kind.B.params) (decode json)
  in
  let rows =
    match Json.member kind.B.rows_field json with
    | Some (Json.List rows) -> List.map decode rows
    | _ -> failwith "no rows"
  in
  B.to_json kind ~header rows

(* Cut every nested ["metrics":{...}] object out of [text]. *)
let without_metrics text =
  let key = "\"metrics\":{" in
  let kl = String.length key and n = String.length text in
  let buf = Buffer.create n in
  let rec go i =
    if i + kl > n then Buffer.add_string buf (String.sub text i (n - i))
    else if String.sub text i kl = key then go (String.index_from text i '}' + 1)
    else (Buffer.add_char buf text.[i]; go (i + 1))
  in
  go 0;
  Buffer.contents buf

let test_rerender () =
  List.iter
    (fun (path, kind) ->
      let text = read path in
      let again = rerender kind (parse text) in
      if kind == B.strategies then begin
        Alcotest.(check string) (path ^ " without metrics") (without_metrics text)
          (without_metrics again);
        Alcotest.(check bool) (path ^ " as JSON") true (parse text = parse again)
      end
      else Alcotest.(check string) path text again)
    files

let gate ?(tolerance = 0.5) ?(skip = []) baseline fresh =
  B.gate ~tolerance ~skip ~baseline ~fresh

let failures = function
  | Ok v -> v.B.failures
  | Error e -> Alcotest.failf "refused: %s" e

let test_self () =
  List.iter
    (fun (path, _) ->
      let json = parse (read path) in
      match gate ~tolerance:0.0 json json with
      | Ok v ->
        Alcotest.(check int) (path ^ " failures") 0 v.B.failures;
        Alcotest.(check bool) (path ^ " checked") true (v.B.checked > 0)
      | Error e -> Alcotest.failf "%s refused: %s" path e)
    files

let with_field key v json =
  Json.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) (fields json))

(* [json] with [f] applied to the row named [name] (dropped on [None]). *)
let edit_row name f json =
  let rows =
    match Json.member "results" json with
    | Some (Json.List rows) ->
      List.filter_map
        (fun r ->
          if Json.member "name" r = Some (Json.String name) then f r else Some r)
        rows
    | _ -> failwith "no results"
  in
  with_field "results" (Json.List rows) json

let scaled key by row =
  match Json.member key row with
  | Some v ->
    let x = Result.get_ok (Json.as_float v) in
    Some (with_field key (Json.Float (x *. by)) row)
  | None -> failwith key

let test_regressions () =
  let wire = parse (read "../BENCH_wire.json") in
  let shard = parse (read "../BENCH_shard.json") in
  Alcotest.(check int) "rps at 0.4x" 1
    (failures (gate wire (edit_row "rps/binary" (scaled "rps" 0.4) wire)));
  Alcotest.(check int) "rps at 0.6x" 0
    (failures (gate wire (edit_row "rps/binary" (scaled "rps" 0.6) wire)));
  Alcotest.(check int) "p99_us at 1.6x" 1
    (failures (gate shard (edit_row "route/direct" (scaled "p99_us" 1.6) shard)));
  Alcotest.(check int) "p99_us at 1.4x" 0
    (failures (gate shard (edit_row "route/direct" (scaled "p99_us" 1.4) shard)));
  let catalog = parse (read "../BENCH_catalog.json") in
  Alcotest.(check int) "registers_per_s at 0.4x" 1
    (failures
       (gate catalog
          (edit_row "register/inline-6x1600" (scaled "registers_per_s" 0.4) catalog)));
  let missing = edit_row "rps/line" (fun _ -> None) wire in
  Alcotest.(check int) "missing row" 1 (failures (gate wire missing));
  Alcotest.(check int) "missing row, skipped" 0
    (failures (gate ~skip:[ "/li" ] wire missing));
  match gate ~skip:[ "binary" ] wire wire with
  | Ok v ->
    Alcotest.(check (list string)) "skip by substring"
      [ "ok    rps/line rps: 65071.5 (baseline 65071.5)";
        "ok    rps/line p50_us: 55.0 (baseline 55.0)";
        "SKIP  rps/binary"; "SKIP  rps/binary-1k-idle" ]
      v.B.lines
  | Error e -> Alcotest.fail e

let refused what = function
  | Error msg ->
    Alcotest.(check bool) (what ^ ": " ^ msg) true (B.contains ~sub:what msg)
  | Ok _ -> Alcotest.failf "%s: compared, expected a refusal" what

let test_refusals () =
  let wire = parse (read "../BENCH_wire.json") in
  let odd = with_field "generated_by" (Json.String "jim bench odd") wire in
  refused "unknown generated_by" (gate odd odd);
  refused "kind mismatch" (gate wire (parse (read "../BENCH_shard.json")));
  let strategies = parse (read "../BENCH_strategies.json") in
  let workload = with_field "workload" (Json.Obj [ ("seeds", Json.Int 3) ]) strategies in
  refused "\"workload\"" (gate strategies workload);
  let load = parse (read "../BENCH_load.json") in
  refused "\"sync_us\"" (gate load (with_field "sync_us" (Json.Int 500) load));
  let store = parse (read "../BENCH_store.json") in
  refused "\"payload_bytes\""
    (gate store (with_field "payload_bytes" (Json.Int 71) store));
  (* A gated metric one side lacks is refused, not left unchecked. *)
  let drop name metric v =
    edit_row name
      (fun r -> Some (Json.Obj (List.filter (fun (k, _) -> k <> metric) (fields r))))
      v
  in
  let no_p50 = drop "rps/line" "p50_us" wire in
  refused "has no field \"p50_us\"" (gate no_p50 wire);
  refused "has no field \"p50_us\"" (gate wire no_p50);
  let catalog = parse (read "../BENCH_catalog.json") in
  let ungated = drop "start/cold" "starts_per_s" catalog in
  refused "has no field \"starts_per_s\"" (gate ungated catalog);
  refused "no gated metric" (gate ungated ungated)

let test_percentile () =
  let check name want got = Alcotest.(check (float 1e-9)) name want got in
  check "n=0" 0.0 (B.percentile [||] 50.0);
  check "n=1 p50" 5.0 (B.percentile [| 5000 |] 50.0);
  check "n=1 p99" 5.0 (B.percentile [| 5000 |] 99.0);
  let hundred = Array.init 100 (fun i -> (i + 1) * 1000) in
  check "n=100 p0" 1.0 (B.percentile hundred 0.0);
  check "n=100 p1" 1.0 (B.percentile hundred 1.0);
  check "n=100 p50" 50.0 (B.percentile hundred 50.0);
  check "n=100 p95" 95.0 (B.percentile hundred 95.0);
  check "n=100 p99" 99.0 (B.percentile hundred 99.0);
  check "n=100 p99.5" 100.0 (B.percentile hundred 99.5);
  check "n=100 p100" 100.0 (B.percentile hundred 100.0)

let () =
  Alcotest.run "bench"
    [
      ( "bench",
        [
          Alcotest.test_case "committed baselines re-render byte for byte" `Quick
            test_rerender;
          Alcotest.test_case "each baseline passes against itself at 0" `Quick test_self;
          Alcotest.test_case "regressions and missing rows fail" `Quick test_regressions;
          Alcotest.test_case "mismatched runs are refused" `Quick test_refusals;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
        ] );
    ]
