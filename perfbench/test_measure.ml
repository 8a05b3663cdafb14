(* Unit tests for the benchmark's own measurement code. *)

module M = Measure

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let percentile_rule () =
  (* p99 needs ten samples beyond its rank: 1,000 samples, not 999. *)
  Alcotest.(check (option (float 0.))) "p99 of 1000" (Some 990.)
    (M.percentile (samples 1000) 0.99);
  Alcotest.(check (option (float 0.))) "p99 of 999" None
    (M.percentile (samples 999) 0.99);
  Alcotest.(check (option (float 0.))) "p90 of 100" (Some 90.)
    (M.percentile (samples 100) 0.9);
  Alcotest.(check (option (float 0.))) "p90 of 99" None
    (M.percentile (samples 99) 0.9);
  Alcotest.(check (option (float 0.))) "p50 of 20" (Some 10.)
    (M.percentile (samples 20) 0.5);
  Alcotest.(check (option (float 0.))) "p50 of 19" None
    (M.percentile (samples 19) 0.5);
  Alcotest.(check (option (float 0.))) "empty" None (M.percentile [||] 0.5)

let percentile_order_and_failures () =
  let xs = Array.init 40 (fun i -> float_of_int ((i * 17) mod 40)) in
  Alcotest.(check (option (float 0.))) "unsorted input" (Some 19.)
    (M.percentile xs 0.5);
  (* A failed request is recorded as infinity: it misses every limit. *)
  let with_failures = Array.init 40 (fun i -> if i < 21 then infinity else 1.) in
  Alcotest.(check (option (float 0.))) "failures count as misses" (Some infinity)
    (M.percentile with_failures 0.5);
  Alcotest.(check (float 0.)) "median" 3. (M.median [| 5.; 1.; 3.; 4.; 2. |])

let span ?(parent = -1) id a b =
  { M.id; parent; name = "s"; start_ns = a; end_ns = b; key = "" }

let self_time_trees () =
  let root = span 0 0 100 in
  Alcotest.(check int) "leaf" 100 (M.self_time root []);
  Alcotest.(check int) "two disjoint children" 70
    (M.self_time root [ span ~parent:0 1 10 20; span ~parent:0 2 50 70 ]);
  Alcotest.(check int) "overlapping children count once" 60
    (M.self_time root [ span ~parent:0 1 10 40; span ~parent:0 2 30 50 ]);
  Alcotest.(check int) "nested child inside child" 70
    (M.self_time root [ span ~parent:0 1 10 40; span ~parent:0 2 15 20 ]);
  Alcotest.(check int) "child sticking out is clipped" 90
    (M.self_time root [ span ~parent:0 1 90 130 ]);
  (* A three-level tree: handler > service > persist. *)
  let handler = span 0 0 100 in
  let service = span ~parent:0 1 10 90 in
  let persist = span ~parent:1 2 20 80 in
  let selfs = M.self_times [ handler; service; persist ] in
  let self_of id = snd (List.find (fun ((s : M.span), _) -> s.M.id = id) selfs) in
  Alcotest.(check int) "handler minus service" 20 (self_of 0);
  Alcotest.(check int) "service minus persist" 20 (self_of 1);
  Alcotest.(check int) "persist is a leaf" 60 (self_of 2)

let span_lines () =
  let s = { M.id = 7; parent = 3; name = "store.record"; start_ns = 10; end_ns = 25; key = "4.2" } in
  Alcotest.(check bool) "round trip" true (M.span_of_line (M.span_to_line s) = Some s);
  Alcotest.(check bool) "garbage" true (M.span_of_line "7\tx" = None)

let status =
  "Name:\tjim_cli.exe\nState:\tS (sleeping)\nVmPeak:\t  123456 kB\nVmHWM:\t    9876 kB\n\
   VmRSS:\t    8000 kB\nThreads:\t18\nvoluntary_ctxt_switches:\t1500\n\
   nonvoluntary_ctxt_switches:\t25\n"

let proc_parsing () =
  Alcotest.(check (option int)) "VmHWM" (Some 9876) (M.proc_field status "VmHWM");
  Alcotest.(check (option int)) "VmRSS" (Some 8000) (M.proc_field status "VmRSS");
  Alcotest.(check (option int)) "missing" None (M.proc_field status "VmSwap");
  Alcotest.(check (option int)) "context switches" (Some 1525) (M.ctx_switches status);
  let io = "rchar: 123456\nwchar: 7890\nsyscr: 12\nsyscw: 34\n" in
  Alcotest.(check (option int)) "io wchar" (Some 7890) (M.proc_field io "wchar");
  Alcotest.(check (option int)) "io rchar" (Some 123456) (M.proc_field io "rchar");
  let stat =
    "4242 (jim (serve) x) S 1 4242 4242 0 -1 4194304 1500 0 0 0 321 45 0 0 20 0 \
     18 0 123456 98765432 2000"
  in
  Alcotest.(check (option int)) "utime + stime past a tricky name" (Some 366)
    (M.cpu_ticks stat);
  Alcotest.(check (option int)) "truncated" None (M.cpu_ticks "1 (x) S 1 2")

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "ten samples beyond the rank" `Quick percentile_rule;
          Alcotest.test_case "order and failures" `Quick percentile_order_and_failures;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time on hand-built trees" `Quick self_time_trees;
          Alcotest.test_case "dump lines" `Quick span_lines;
        ] );
      ("proc", [ Alcotest.test_case "status and stat parsing" `Quick proc_parsing ]);
    ]
