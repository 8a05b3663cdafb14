(* The bench gate: compare a fresh benchmark run against the committed
   baseline JSON and fail (exit 1) on a regression — throughput down or
   latency up by more than the tolerance.

   Usage:
     bench_gate.exe --baseline BENCH_wire.json --fresh fresh.json
                    [--tolerance 0.20] [--skip SUBSTRING]...

   The file kind is dispatched on "generated_by" through the kind table
   in bench/common, which names each kind's row array, its gated
   metrics with their directions, and its run parameters.  Runs whose
   parameters differ (e.g. "workload" or "sync_us") are refused (exit 2)
   rather than compared.

   --skip excludes rows whose name contains the substring — for rows
   that measure the machine rather than the code (e.g. fsync-bound
   store rows on shared CI runners).  Rows present in the baseline but
   missing from the fresh run fail the gate: a silently dropped
   benchmark is not a passing benchmark. *)

module Json = Jim_api.Json

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("bench-gate: " ^ m); exit 2) fmt

let read_json path =
  let ic = try open_in path with Sys_error m -> die "%s" m in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  match Json.of_string data with
  | Ok v -> v
  | Error e -> die "%s: %s" path e

let () =
  let baseline = ref "" and fresh = ref "" in
  let tolerance = ref 0.20 in
  let skip = ref [] in
  let rec parse i =
    if i >= Array.length Sys.argv then ()
    else
      let need () =
        if i + 1 >= Array.length Sys.argv then
          die "%s needs a value" Sys.argv.(i);
        Sys.argv.(i + 1)
      in
      match Sys.argv.(i) with
      | "--baseline" -> baseline := need (); parse (i + 2)
      | "--fresh" -> fresh := need (); parse (i + 2)
      | "--tolerance" -> tolerance := float_of_string (need ()); parse (i + 2)
      | "--skip" -> skip := need () :: !skip; parse (i + 2)
      | a -> die "unknown argument %S" a
  in
  parse 1;
  if !baseline = "" || !fresh = "" then
    die "usage: --baseline FILE --fresh FILE [--tolerance T] [--skip S]...";
  let base_json = read_json !baseline and fresh_json = read_json !fresh in
  match
    Jim_bench.gate ~tolerance:!tolerance ~skip:!skip ~baseline:base_json
      ~fresh:fresh_json
  with
  | Error m -> die "%s" m
  | Ok v ->
    List.iter (Printf.printf "%s\n") v.lines;
    if v.checked = 0 then die "no metrics compared — empty baseline?";
    if v.failures > 0 then begin
      Printf.printf "bench-gate: %d regression(s) vs %s\n" v.failures !baseline;
      exit 1
    end;
    Printf.printf "bench-gate: %d metric(s) within %.0f%% of %s\n" v.checked
      (!tolerance *. 100.0) !baseline
