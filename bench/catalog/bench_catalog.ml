(* Instance-catalog benchmarks: what a session start costs cold (first
   contact with an instance — fingerprint, sigclass grouping, initial
   status derivation) versus warm (the catalog already holds the entry,
   the start just pins it and builds an engine off its derivation).

   Starts go through [Service.handle] in-process — no sockets — so the
   numbers measure the catalog and engine-construction path, not
   framing.  Every session is ended right after starting; the catalog
   outlives the sessions, which is the point.

   Rows:
     start/cold              every start is a distinct synthetic instance
     start/warm              every start re-sends the same concrete source
     start/by-fingerprint    register once, start via [Catalog fp]
     register/inline-6x1600  every register uploads a distinct inline CSV

   Run with: dune exec bench/catalog/bench_catalog.exe [-- --quick] [--out F]
   Writes the machine-readable BENCH_catalog.json (schema mirrors the
   other BENCH files: schema_version + generated_by + rows). *)

module B = Jim_bench
module P = Jim_api.Protocol
module Service = Jim_server.Service
module Smoke = Jim_server.Smoke

let start_end service src i =
  match
    Service.handle service
      (P.Start_session { source = src; strategy = "random"; seed = i })
  with
  | P.Started { session; _ } ->
    ignore (Service.handle service (P.End_session { session }))
  | other -> failwith ("start: " ^ P.response_to_string other)

let timed ~name ~starts f =
  let t0 = Unix.gettimeofday () in
  f ();
  let wall_s = Unix.gettimeofday () -. t0 in
  [
    ("name", B.S name);
    ("starts", B.D starts);
    ("wall_s", B.F6 wall_s);
    ("starts_per_s", B.F1 (B.rate starts wall_s));
  ]

(* Cold: a fresh instance every time, so every start pays fingerprint +
   derivation (and, past the cap, an eviction). *)
let bench_cold ~starts =
  let service = Service.create ~max_sessions:8 () in
  timed ~name:"start/cold" ~starts (fun () ->
      for i = 0 to starts - 1 do
        start_end service (Smoke.synthetic_source (1000 + i)) i
      done)

(* Warm: the same concrete source every time — one derivation up front,
   then every start is a by-source catalog hit. *)
let bench_warm ~starts =
  let service = Service.create ~max_sessions:8 () in
  start_end service (Smoke.synthetic_source 7) (-1);
  timed ~name:"start/warm" ~starts (fun () ->
      for i = 0 to starts - 1 do
        start_end service (Smoke.synthetic_source 7) i
      done)

(* By fingerprint: the redesigned flow — register once, then every start
   ships only the handle. *)
let bench_by_fp ~starts =
  let service = Service.create ~max_sessions:8 () in
  let fp =
    match
      Service.handle service
        (P.Register_instance { source = Smoke.synthetic_source 7 })
    with
    | P.Registered { fingerprint; _ } -> fingerprint
    | other -> failwith ("register: " ^ P.response_to_string other)
  in
  timed ~name:"start/by-fingerprint" ~starts (fun () ->
      for i = 0 to starts - 1 do
        start_end service (P.Catalog fp) i
      done)

(* Register: distinct 6 x 1,600 inline CSVs at domain 6, the largest
   instances of perfbench's explore workload, each one catalog miss and
   one derivation: what reading, fingerprinting and grouping an uploaded
   instance costs.  The texts are rendered before the clock starts. *)
let bench_register ~registers =
  let service = Service.create ~max_sessions:8 () in
  let texts =
    Array.init registers (fun i ->
        Jim_relational.Csv.to_string
          (Jim_workloads.Synthetic.generate
             { n_attrs = 6; n_tuples = 1600; domain = 6; goal_rank = 2; seed = 1000 + i })
            .relation)
  in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun text ->
      match Service.handle service (P.Register_instance { source = P.Csv_inline text }) with
      | P.Registered _ -> ()
      | other -> failwith ("register: " ^ P.response_to_string other))
    texts;
  let wall_s = Unix.gettimeofday () -. t0 in
  let derivations = (Jim_catalog.Catalog.stats (Service.catalog service)).P.derivations in
  if derivations <> registers then
    failwith (Printf.sprintf "register: %d derivations for %d texts" derivations registers);
  [
    ("name", B.S "register/inline-6x1600");
    ("registers", B.D registers);
    ("wall_s", B.F6 wall_s);
    ("registers_per_s", B.F1 (B.rate registers wall_s));
  ]

let () =
  let out = B.out "BENCH_catalog.json" in
  let rows =
    [
      bench_cold ~starts:(B.scale 500);
      bench_warm ~starts:(B.scale 20_000);
      bench_by_fp ~starts:(B.scale 20_000);
      bench_register ~registers:(B.scale 200);
    ]
  in
  B.print_rows
    [ "name"; "starts"; "registers"; "wall_s"; "starts_per_s"; "registers_per_s" ]
    rows;
  B.write_json B.catalog ~path:out rows;
  Printf.printf "wrote %s\n" out
