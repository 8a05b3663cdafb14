(* Unit and property tests for the partition-lattice substrate:
   Dsu, Partition, Bell, Penum, Lattice. *)

module P = Jim_partition.Partition
module Dsu = Jim_partition.Dsu
module Bell = Jim_partition.Bell
module Penum = Jim_partition.Penum
module Lattice = Jim_partition.Lattice
module Pairs = Jim_partition.Pairs

let partition = Alcotest.testable P.pp P.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

(* Random partition of size n: random RGS. *)
let gen_partition_sized n =
  QCheck.Gen.(
    let* rgs =
      let rec build i maxv acc =
        if i >= n then return (List.rev acc)
        else
          let* v = int_bound (min (maxv + 1) (n - 1)) in
          build (i + 1) (max maxv v) (v :: acc)
      in
      build 0 (-1) []
    in
    return (P.of_rgs (Array.of_list rgs)))

let arb_partition n =
  QCheck.make ~print:P.to_string (gen_partition_sized n)

let arb_pair n =
  QCheck.make
    ~print:(fun (a, b) -> P.to_string a ^ " , " ^ P.to_string b)
    QCheck.Gen.(pair (gen_partition_sized n) (gen_partition_sized n))

let arb_triple n =
  QCheck.make
    ~print:(fun (a, b, c) ->
      String.concat " , " [ P.to_string a; P.to_string b; P.to_string c ])
    QCheck.Gen.(
      triple (gen_partition_sized n) (gen_partition_sized n)
        (gen_partition_sized n))

let qtest ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------------------------------------------------ *)
(* Dsu                                                                 *)

let test_dsu_basic () =
  let d = Dsu.create 6 in
  Alcotest.(check int) "initial classes" 6 (Dsu.class_count d);
  Alcotest.(check bool) "union changes" true (Dsu.union d 0 3);
  Alcotest.(check bool) "re-union is no-op" false (Dsu.union d 3 0);
  Alcotest.(check bool) "same after union" true (Dsu.same d 0 3);
  Alcotest.(check bool) "others unaffected" false (Dsu.same d 1 2);
  ignore (Dsu.union d 3 5);
  Alcotest.(check bool) "transitivity" true (Dsu.same d 0 5);
  Alcotest.(check int) "classes after two unions" 4 (Dsu.class_count d)

let test_dsu_canonical () =
  let d = Dsu.create 5 in
  ignore (Dsu.union d 4 2);
  ignore (Dsu.union d 2 1);
  let c = Dsu.canonical d in
  Alcotest.(check (array int)) "min-element reps" [| 0; 1; 1; 3; 1 |] c

let test_dsu_create_negative () =
  Alcotest.check_raises "negative size"
    (Invalid_argument "Dsu.create: negative size") (fun () ->
      ignore (Dsu.create (-1)))

(* ------------------------------------------------------------------ *)
(* Partition: construction and observations                            *)

let test_partition_bounds () =
  let b = P.bottom 4 and t = P.top 4 in
  Alcotest.(check bool) "bottom is bottom" true (P.is_bottom b);
  Alcotest.(check bool) "top is top" true (P.is_top t);
  Alcotest.(check int) "bottom rank" 0 (P.rank b);
  Alcotest.(check int) "top rank" 3 (P.rank t);
  Alcotest.(check int) "bottom blocks" 4 (P.block_count b);
  Alcotest.(check int) "top blocks" 1 (P.block_count t);
  Alcotest.(check bool) "bottom refines top" true (P.refines b t);
  Alcotest.(check bool) "top does not refine bottom" false (P.refines t b)

let test_partition_of_blocks () =
  let p = P.of_blocks 6 [ [ 1; 3 ]; [ 2; 4; 5 ] ] in
  Alcotest.(check int) "blocks" 3 (P.block_count p);
  Alcotest.(check bool) "1~3" true (P.same p 1 3);
  Alcotest.(check bool) "2~5" true (P.same p 2 5);
  Alcotest.(check bool) "0 alone" false (P.same p 0 1);
  Alcotest.(check (list (list int)))
    "blocks listing"
    [ [ 0 ]; [ 1; 3 ]; [ 2; 4; 5 ] ]
    (P.blocks p);
  Alcotest.(check (list (list int)))
    "nontrivial blocks"
    [ [ 1; 3 ]; [ 2; 4; 5 ] ]
    (P.nontrivial_blocks p)

let test_partition_of_blocks_errors () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Partition.of_blocks: duplicate element") (fun () ->
      ignore (P.of_blocks 4 [ [ 0; 1 ]; [ 1; 2 ] ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Partition.of_blocks: out of range") (fun () ->
      ignore (P.of_blocks 3 [ [ 0; 3 ] ]))

let test_partition_pairs () =
  let p = P.of_blocks 5 [ [ 0; 2; 4 ] ] in
  Alcotest.(check (list (pair int int)))
    "pairs"
    [ (0, 2); (0, 4); (2, 4) ]
    (P.pairs p);
  Alcotest.(check (list (pair int int))) "bottom has no pairs" []
    (P.pairs (P.bottom 5))

let test_partition_strings () =
  let p = P.of_blocks 5 [ [ 1; 3 ]; [ 2; 4 ] ] in
  Alcotest.(check string) "to_string" "{0}{1,3}{2,4}" (P.to_string p);
  Alcotest.(check string) "named"
    "{From}{To,City}{Airline,Discount}"
    (P.to_string_names [| "From"; "To"; "Airline"; "City"; "Discount" |] p)

let test_partition_restrict () =
  let p = P.of_blocks 4 [ [ 0; 1; 2 ] ] in
  let r = P.restrict p ~allowed:(fun (i, j) -> (i, j) = (0, 1)) in
  Alcotest.(check partition) "restricted" (P.of_blocks 4 [ [ 0; 1 ] ]) r;
  (* Restriction through a chain of allowed pairs re-closes: allowing
     (0,1) and (1,2) keeps the whole block. *)
  let r2 =
    P.restrict p ~allowed:(fun (i, j) -> (i, j) = (0, 1) || (i, j) = (1, 2))
  in
  Alcotest.(check partition) "closure inside allowed" p r2

let test_rgs_roundtrip_exhaustive () =
  Penum.iter_all 5 (fun p ->
      Alcotest.(check partition) "rgs roundtrip" p (P.of_rgs (P.to_rgs p)))

(* ------------------------------------------------------------------ *)
(* Lattice laws (qcheck)                                               *)

let n = 7

let props =
  [
    qtest "meet commutative" (arb_pair n) (fun (a, b) ->
        P.equal (P.meet a b) (P.meet b a));
    qtest "join commutative" (arb_pair n) (fun (a, b) ->
        P.equal (P.join a b) (P.join b a));
    qtest "meet associative" (arb_triple n) (fun (a, b, c) ->
        P.equal (P.meet a (P.meet b c)) (P.meet (P.meet a b) c));
    qtest "join associative" (arb_triple n) (fun (a, b, c) ->
        P.equal (P.join a (P.join b c)) (P.join (P.join a b) c));
    qtest "meet idempotent" (arb_partition n) (fun a -> P.equal (P.meet a a) a);
    qtest "join idempotent" (arb_partition n) (fun a -> P.equal (P.join a a) a);
    qtest "absorption meet-join" (arb_pair n) (fun (a, b) ->
        P.equal (P.meet a (P.join a b)) a);
    qtest "absorption join-meet" (arb_pair n) (fun (a, b) ->
        P.equal (P.join a (P.meet a b)) a);
    qtest "meet is glb" (arb_pair n) (fun (a, b) ->
        let m = P.meet a b in
        P.refines m a && P.refines m b);
    qtest "join is lub" (arb_pair n) (fun (a, b) ->
        let j = P.join a b in
        P.refines a j && P.refines b j);
    qtest "refines antisymmetric" (arb_pair n) (fun (a, b) ->
        QCheck.assume (P.refines a b && P.refines b a);
        P.equal a b);
    qtest "refines iff pairs subset" (arb_pair n) (fun (a, b) ->
        let subset =
          List.for_all (fun pr -> List.mem pr (P.pairs b)) (P.pairs a)
        in
        P.refines a b = subset);
    qtest "refines transitive" (arb_triple n) (fun (a, b, c) ->
        QCheck.assume (P.refines a b && P.refines b c);
        P.refines a c);
    qtest "rank monotone" (arb_pair n) (fun (a, b) ->
        QCheck.assume (P.refines a b);
        P.rank a <= P.rank b);
    qtest "meet rank upper bound" (arb_pair n) (fun (a, b) ->
        P.rank (P.meet a b) <= min (P.rank a) (P.rank b));
    qtest "bounds" (arb_partition n) (fun a ->
        P.refines (P.bottom n) a && P.refines a (P.top n));
    qtest "canonical invariant" (arb_partition n) (fun a ->
        let ok = ref true in
        for i = 0 to n - 1 do
          let r = P.rep a i in
          if r > i || P.rep a r <> r then ok := false
        done;
        !ok);
    qtest "of_pairs . pairs = id" (arb_partition n) (fun a ->
        P.equal a (P.of_pairs n (P.pairs a)));
    qtest "compare consistent with equal" (arb_pair n) (fun (a, b) ->
        (P.compare a b = 0) = P.equal a b);
  ]

(* ------------------------------------------------------------------ *)
(* Bell numbers and enumeration                                        *)

let test_bell_values () =
  List.iteri
    (fun i expected ->
      Alcotest.(check int) (Printf.sprintf "bell %d" i) expected (Bell.bell i))
    [ 1; 1; 2; 5; 15; 52; 203; 877; 4140; 21147; 115975 ]

let test_bell_float_agrees () =
  for i = 0 to 20 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "bell_float %d" i)
      (float_of_int (Bell.bell i))
      (Bell.bell_float i)
  done

let test_bell_out_of_range () =
  Alcotest.check_raises "negative" (Invalid_argument "Bell.bell: out of range")
    (fun () -> ignore (Bell.bell (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Bell.bell: out of range")
    (fun () -> ignore (Bell.bell 25))

let test_enum_counts () =
  List.iter
    (fun k ->
      let count = ref 0 in
      Penum.iter_all k (fun _ -> incr count);
      Alcotest.(check int)
        (Printf.sprintf "|partitions of %d| = Bell %d" k k)
        (Bell.bell k) !count)
    [ 0; 1; 2; 3; 4; 5; 6 ]

let test_enum_distinct () =
  let seen = Hashtbl.create 64 in
  Penum.iter_all 5 (fun p ->
      let key = P.to_string p in
      Alcotest.(check bool) ("fresh " ^ key) false (Hashtbl.mem seen key);
      Hashtbl.add seen key ())

let test_below_counts () =
  Penum.iter_all 5 (fun p ->
      let ideal = Penum.below p in
      Alcotest.(check (float 0.0))
        ("count_below " ^ P.to_string p)
        (float_of_int (List.length ideal))
        (Penum.count_below p);
      List.iter
        (fun q ->
          Alcotest.(check bool) "member refines top of ideal" true
            (P.refines q p))
        ideal)

let test_below_is_exactly_ideal () =
  let p = P.of_blocks 5 [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let ideal = Penum.below p in
  (* |v p| = Bell(3) * Bell(2) = 5 * 2 = 10 *)
  Alcotest.(check int) "ideal size" 10 (List.length ideal);
  Penum.iter_all 5 (fun q ->
      let in_list = List.exists (P.equal q) ideal in
      Alcotest.(check bool) (P.to_string q) (P.refines q p) in_list)

let test_between () =
  let lo = P.of_blocks 5 [ [ 0; 1 ] ] in
  let hi = P.of_blocks 5 [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let interval = ref [] in
  Penum.iter_between lo hi (fun q -> interval := q :: !interval);
  let expected = ref [] in
  Penum.iter_all 5 (fun q ->
      if P.refines lo q && P.refines q hi then expected := q :: !expected);
  let norm l = List.sort P.compare l in
  Alcotest.(check (list partition))
    "interval contents" (norm !expected) (norm !interval)

(* ------------------------------------------------------------------ *)
(* Lattice module: counting                                            *)

let test_down_minus_exact () =
  let top = P.of_blocks 5 [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let excl =
    [ P.of_blocks 5 [ [ 0; 1 ]; [ 3; 4 ] ]; P.of_blocks 5 [ [ 0; 2 ] ] ]
  in
  let brute = ref 0 in
  Penum.iter_below top (fun q ->
      if not (List.exists (fun e -> P.refines q e) excl) then incr brute);
  Alcotest.(check (float 0.0))
    "inclusion-exclusion = brute force" (float_of_int !brute)
    (Lattice.down_minus_count ~top ~excluded:excl)

let prop_down_minus =
  qtest ~count:150 "down_minus_count matches brute force"
    (QCheck.make
       ~print:(fun (t, es) ->
         P.to_string t ^ " minus " ^ String.concat "," (List.map P.to_string es))
       QCheck.Gen.(
         pair (gen_partition_sized 5)
           (list_size (int_bound 4) (gen_partition_sized 5))))
    (fun (top, excl) ->
      let brute = ref 0 in
      Penum.iter_below top (fun q ->
          if not (List.exists (fun e -> P.refines q e) excl) then incr brute);
      Lattice.down_minus_count ~top ~excluded:excl = float_of_int !brute)

let test_antichains () =
  let a = P.of_blocks 4 [ [ 0; 1 ] ] in
  let b = P.of_blocks 4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  let c = P.of_blocks 4 [ [ 2; 3 ] ] in
  Alcotest.(check (list partition))
    "maximal drops dominated" [ b ]
    (Lattice.maximal_elements [ a; b; c ]);
  let mins = Lattice.minimal_elements [ a; b; c ] in
  Alcotest.(check int) "two minimal" 2 (List.length mins);
  Alcotest.(check bool) "a minimal" true (List.exists (P.equal a) mins);
  Alcotest.(check bool) "c minimal" true (List.exists (P.equal c) mins)

(* ------------------------------------------------------------------ *)
(* Meet and pair bitsets against references                           *)

(* The meet as it was first written: one Hashtbl entry per distinct
   (p-rep, q-rep) key, the first element seen being the representative. *)
let hashtbl_meet p q =
  let n = P.size p in
  let tbl = Hashtbl.create (2 * n) in
  P.of_rep_array
    (Array.init n (fun i ->
         let key = (P.rep p i, P.rep q i) in
         match Hashtbl.find_opt tbl key with
         | Some r -> r
         | None ->
           Hashtbl.add tbl key i;
           i))

(* Three partitions of one random size 0..20: from 12 elements on, a
   pair bitset takes two words or more. *)
let arb_sized_triple =
  QCheck.make
    ~print:(fun (a, b, c) ->
      String.concat " , " [ P.to_string a; P.to_string b; P.to_string c ])
    QCheck.Gen.(
      let* n = int_range 0 20 in
      triple (gen_partition_sized n) (gen_partition_sized n)
        (gen_partition_sized n))

let prop_meet_hashtbl =
  qtest ~count:500 "meet = Hashtbl meet, n 0..20" arb_sized_triple
    (fun (a, b, c) ->
      let j = P.join a b in
      List.for_all
        (fun (p, q) -> P.equal (P.meet p q) (hashtbl_meet p q))
        [ (a, b); (b, a); (a, c); (j, c); (c, j); (j, a) ])

let prop_pairs_partition =
  qtest ~count:500 "Pairs = Partition, n 0..20" arb_sized_triple
    (fun (a, b, c) ->
      let n = P.size a in
      let parts = [ a; b; c; P.join a b; P.meet a b; P.bottom n; P.top n ] in
      let bits = Pairs.of_partition in
      let each f = List.for_all f parts in
      let every f = each (fun p -> each (f p)) in
      each (fun p -> P.equal (Pairs.to_partition n (bits p)) p)
      && each (fun p -> Pairs.rank n (bits p) = P.rank p)
      && each (fun p -> Pairs.block_sizes n (bits p) = P.block_sizes p)
      && Pairs.equal (Pairs.top n) (bits (P.top n))
      && every (fun p q -> Pairs.equal (bits p) (bits q) = P.equal p q)
      && every (fun p q ->
             Pairs.equal (Pairs.meet (bits p) (bits q)) (bits (P.meet p q)))
      && every (fun p q -> Pairs.refines (bits p) (bits q) = P.refines p q)
      && every (fun p q ->
             each (fun u ->
                 Pairs.meet_refines (bits p) (bits q) (bits u)
                 = P.refines (P.meet p q) u)))

let test_meet_all_empty_is_top () =
  Alcotest.(check partition) "empty meet" (P.top 4) (Lattice.meet_all 4 []);
  Alcotest.(check partition) "empty join" (P.bottom 4) (Lattice.join_all 4 [])

let () =
  Alcotest.run "partition"
    [
      ( "dsu",
        [
          Alcotest.test_case "basic" `Quick test_dsu_basic;
          Alcotest.test_case "canonical array" `Quick test_dsu_canonical;
          Alcotest.test_case "negative size" `Quick test_dsu_create_negative;
        ] );
      ( "partition",
        [
          Alcotest.test_case "bounds" `Quick test_partition_bounds;
          Alcotest.test_case "of_blocks" `Quick test_partition_of_blocks;
          Alcotest.test_case "of_blocks errors" `Quick
            test_partition_of_blocks_errors;
          Alcotest.test_case "pairs" `Quick test_partition_pairs;
          Alcotest.test_case "to_string" `Quick test_partition_strings;
          Alcotest.test_case "restrict" `Quick test_partition_restrict;
          Alcotest.test_case "rgs roundtrip (all of size 5)" `Quick
            test_rgs_roundtrip_exhaustive;
        ] );
      ("lattice laws", props);
      ("meet+pairs", [ prop_meet_hashtbl; prop_pairs_partition ]);
      ( "bell+enum",
        [
          Alcotest.test_case "bell values" `Quick test_bell_values;
          Alcotest.test_case "bell float agrees" `Quick test_bell_float_agrees;
          Alcotest.test_case "bell out of range" `Quick test_bell_out_of_range;
          Alcotest.test_case "enumeration counts" `Quick test_enum_counts;
          Alcotest.test_case "enumeration distinct" `Quick test_enum_distinct;
          Alcotest.test_case "below = ideal (counts)" `Quick test_below_counts;
          Alcotest.test_case "below = ideal (membership)" `Quick
            test_below_is_exactly_ideal;
          Alcotest.test_case "between = interval" `Quick test_between;
        ] );
      ( "counting",
        [
          Alcotest.test_case "down_minus exact case" `Quick
            test_down_minus_exact;
          prop_down_minus;
          Alcotest.test_case "antichains" `Quick test_antichains;
          Alcotest.test_case "empty meet/join" `Quick
            test_meet_all_empty_is_top;
        ] );
    ]
