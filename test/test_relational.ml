(* Tests for the relational substrate: values, schemas, tuples, relations,
   CSV, and the equi-join SQL oracle over a database. *)

module V = Jim_relational.Value
module Schema = Jim_relational.Schema
module T = Jim_relational.Tuple0
module R = Jim_relational.Relation
module Csv = Jim_relational.Csv
module Database = Jim_relational.Database
module Sql = Jim_relational.Sql
module P = Jim_partition.Partition

let value = Alcotest.testable V.pp V.identical
let partition = Alcotest.testable P.pp P.equal

(* ------------------------------------------------------------------ *)
(* Values                                                              *)

let test_value_equal_null () =
  Alcotest.(check bool) "null <> null (SQL equal)" false V.(equal Null Null);
  Alcotest.(check bool) "null == null (identical)" true V.(identical Null Null);
  Alcotest.(check bool) "1 = 1" true V.(equal (Int 1) (Int 1));
  Alcotest.(check bool) "1 <> 1.0 (typed)" false V.(equal (Int 1) (Float 1.0))

let test_value_compare_order () =
  let sorted =
    List.sort V.compare
      V.[ Str "b"; Int 2; Null; Float 1.5; Int 1; Str "a"; Bool true ]
  in
  Alcotest.(check (list value))
    "null, ints, floats, strings, bools"
    V.[ Null; Int 1; Int 2; Float 1.5; Str "a"; Str "b"; Bool true ]
    sorted

let test_value_parse () =
  Alcotest.(check value) "int" (V.Int 42) (Result.get_ok (V.parse V.Tint "42"));
  Alcotest.(check value) "empty is null" V.Null
    (Result.get_ok (V.parse V.Tint ""));
  Alcotest.(check bool) "bad int" true (Result.is_error (V.parse V.Tint "4x"));
  Alcotest.(check value) "date" (V.date 2014 9 1)
    (Result.get_ok (V.parse V.Tdate "2014-09-01"));
  Alcotest.(check bool) "bad date" true
    (Result.is_error (V.parse V.Tdate "2014-02-30"));
  Alcotest.(check value) "bool yes" (V.Bool true)
    (Result.get_ok (V.parse V.Tbool "Yes"))

let test_value_parse_auto () =
  Alcotest.(check value) "auto int" (V.Int 7) (V.parse_auto "7");
  Alcotest.(check value) "auto float" (V.Float 7.5) (V.parse_auto "7.5");
  Alcotest.(check value) "auto bool" (V.Bool false) (V.parse_auto "false");
  Alcotest.(check value) "auto date" (V.date 1999 12 31)
    (V.parse_auto "1999-12-31");
  Alcotest.(check value) "auto string" (V.Str "NYC") (V.parse_auto "NYC")

let test_value_date_validation () =
  Alcotest.check_raises "month 13"
    (Invalid_argument "Value.date: impossible date") (fun () ->
      ignore (V.date 2020 13 1));
  Alcotest.(check value) "leap day ok" (V.date 2020 2 29) (V.date 2020 2 29);
  Alcotest.check_raises "non-leap feb 29"
    (Invalid_argument "Value.date: impossible date") (fun () ->
      ignore (V.date 2021 2 29))

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)

let abc = Schema.of_list [ ("a", V.Tint); ("b", V.Tstring); ("c", V.Tint) ]

let test_schema_find () =
  Alcotest.(check (option int)) "b at 1" (Some 1) (Schema.find abc "b");
  Alcotest.(check (option int)) "missing" None (Schema.find abc "z");
  let q = Schema.qualify "r" abc in
  Alcotest.(check (option int)) "qualified exact" (Some 2) (Schema.find q "r.c");
  Alcotest.(check (option int)) "bare resolves" (Some 2) (Schema.find q "c")

let test_schema_ambiguous_bare () =
  let s = Schema.concat_qualified [ ("x", abc); ("y", abc) ] in
  Alcotest.(check (option int)) "ambiguous bare is None" None (Schema.find s "a");
  Alcotest.(check (option int)) "qualified ok" (Some 3) (Schema.find s "y.a")

let test_schema_duplicate () =
  Alcotest.(check bool) "duplicate raises" true
    (try
       ignore (Schema.of_list [ ("a", V.Tint); ("a", V.Tint) ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Tuples and signatures                                               *)

let test_tuple_signature () =
  let t = T.make V.[ Str "x"; Str "y"; Str "x"; Str "y"; Str "z" ] in
  Alcotest.(check partition) "signature groups equal values"
    (P.of_blocks 5 [ [ 0; 2 ]; [ 1; 3 ] ])
    (T.signature t);
  let all_distinct = T.make V.[ Int 1; Int 2; Int 3 ] in
  Alcotest.(check partition) "distinct -> bottom" (P.bottom 3)
    (T.signature all_distinct);
  let all_same = T.make V.[ Int 1; Int 1; Int 1 ] in
  Alcotest.(check partition) "constant -> top" (P.top 3)
    (T.signature all_same)

let test_tuple_signature_nulls () =
  (* Signatures use identity, so two Nulls share a block. *)
  let t = T.make V.[ Null; Int 1; Null ] in
  Alcotest.(check partition) "nulls grouped"
    (P.of_blocks 3 [ [ 0; 2 ] ])
    (T.signature t)

let test_tuple_satisfies () =
  let t = T.make V.[ Str "a"; Str "b"; Str "a" ] in
  Alcotest.(check bool) "holds" true (T.satisfies (P.of_pairs 3 [ (0, 2) ]) t);
  Alcotest.(check bool) "fails" false (T.satisfies (P.of_pairs 3 [ (0, 1) ]) t);
  Alcotest.(check bool) "empty predicate selects" true
    (T.satisfies (P.bottom 3) t)

(* ------------------------------------------------------------------ *)
(* Relations                                                           *)

let nums =
  R.of_rows ~name:"nums"
    (Schema.of_list [ ("k", V.Tint); ("v", V.Tstring) ])
    V.[
        [ Int 1; Str "one" ];
        [ Int 2; Str "two" ];
        [ Int 3; Str "three" ];
        [ Int 2; Str "two" ];
      ]

let test_relation_make_checks () =
  let s = Schema.of_list [ ("k", V.Tint) ] in
  Alcotest.(check bool) "arity mismatch" true
    (try
       ignore (R.of_rows s V.[ [ Int 1; Int 2 ] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "type mismatch" true
    (try
       ignore (R.of_rows s V.[ [ Str "x" ] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "null ok" 1 (R.cardinality (R.of_rows s V.[ [ Null ] ]))

let test_relation_select_project () =
  let r = R.select (fun t -> T.get t 0 = V.Int 2) nums in
  Alcotest.(check int) "two rows" 2 (R.cardinality r);
  let p = R.project [ 1 ] nums in
  Alcotest.(check int) "arity 1" 1 (R.arity p);
  Alcotest.(check string) "name kept" "nums" (R.name p)

let test_relation_distinct () =
  let d = R.distinct nums in
  Alcotest.(check int) "distinct drops dup" 3 (R.cardinality d);
  Alcotest.(check (list value))
    "first occurrences, in order"
    V.[ Int 1; Int 2; Int 3 ]
    (List.map (fun t -> T.get t 0) (R.tuples d))

let test_relation_product () =
  let a =
    R.of_rows ~name:"a"
      (Schema.of_list [ ("x", V.Tint) ])
      V.[ [ Int 1 ]; [ Int 2 ] ]
  in
  let b =
    R.of_rows ~name:"b"
      (Schema.of_list [ ("y", V.Tint) ])
      V.[ [ Int 3 ]; [ Int 4 ] ]
  in
  let p = R.product [ a; b ] in
  Alcotest.(check int) "4 rows" 4 (R.cardinality p);
  Alcotest.(check (array string))
    "qualified schema" [| "a.x"; "b.y" |]
    (Schema.names (R.schema p));
  Alcotest.(check value) "row0 left" (V.Int 1) (T.get (R.tuple p 0) 0);
  Alcotest.(check value) "row1 right" (V.Int 4) (T.get (R.tuple p 1) 1);
  let c = R.of_rows ~name:"c" (Schema.of_list [ ("x", V.Tint) ]) V.[ [ Int 5 ]; [ Int 6 ] ] in
  let p3 = R.product [ a; b; c ] in
  Alcotest.(check (array string))
    "three-way schema" [| "a.x"; "b.y"; "c.x" |]
    (Schema.names (R.schema p3));
  Alcotest.(check (list (list value)))
    "left-major rows"
    (List.concat_map
       (fun x ->
         List.concat_map (fun y -> List.map (fun z -> V.[ Int x; Int y; Int z ]) [ 5; 6 ]) [ 3; 4 ])
       [ 1; 2 ])
    (List.map Array.to_list (R.tuples p3));
  Alcotest.(check bool) "same relation twice" true
    (match R.product [ a; a ] with _ -> false | exception Invalid_argument _ -> true)

let test_relation_equi_join () =
  let a =
    R.of_rows ~name:"a"
      (Schema.of_list [ ("x", V.Tint); ("t", V.Tstring) ])
      V.[ [ Int 1; Str "u" ]; [ Int 2; Str "v" ]; [ Null; Str "w" ] ]
  in
  let b =
    R.of_rows ~name:"b"
      (Schema.of_list [ ("y", V.Tint) ])
      V.[ [ Int 2 ]; [ Int 2 ]; [ Null ] ]
  in
  match Sql.exec (Database.of_relations [ a; b ]) "SELECT * FROM a, b WHERE x = y" with
  | Error e -> Alcotest.fail e
  | Ok j ->
    (* Only x=2 matches, twice; nulls never join. *)
    Alcotest.(check int) "2 rows" 2 (R.cardinality j);
    Alcotest.(check value) "joined value" (V.Int 2) (T.get (R.tuple j 0) 0);
    let ps =
      R.select (fun t -> V.equal (T.get t 0) (T.get t 2)) (R.product [ a; b ])
    in
    Alcotest.(check bool) "join = select over product" true (R.equal_contents j ps)

let test_relation_set_ops () =
  let s = Schema.of_list [ ("x", V.Tint) ] in
  let a = R.of_rows ~name:"a" s V.[ [ Int 1 ]; [ Int 2 ]; [ Int 2 ] ] in
  let b = R.of_rows ~name:"b" s V.[ [ Int 2 ]; [ Int 3 ] ] in
  Alcotest.(check int) "union distinct" 3 (R.cardinality (R.union a b));
  Alcotest.(check bool) "incompatible schemas" true
    (match R.union a (R.of_rows (Schema.of_list [ ("s", V.Tstring) ]) []) with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_relation_sample_deterministic () =
  let big =
    R.of_rows ~name:"big"
      (Schema.of_list [ ("x", V.Tint) ])
      (List.init 100 (fun i -> [ V.Int i ]))
  in
  let s1 = R.sample ~seed:5 10 big and s2 = R.sample ~seed:5 10 big in
  Alcotest.(check bool) "same seed same sample" true (R.equal_contents s1 s2);
  Alcotest.(check int) "size" 10 (R.cardinality s1);
  let xs = List.map (fun t -> T.get t 0) (R.tuples s1) in
  let rec increasing = function
    | a :: (b :: _ as rest) -> V.compare a b < 0 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "row order preserved" true (increasing xs)

let test_relation_satisfying () =
  let r =
    R.of_rows ~name:"r"
      (Schema.of_list [ ("x", V.Tstring); ("y", V.Tstring) ])
      V.[ [ Str "a"; Str "a" ]; [ Str "a"; Str "b" ] ]
  in
  Alcotest.(check int) "one satisfying row" 1
    (R.cardinality (R.satisfying (P.top 2) r))

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)

let test_csv_parse_simple () =
  Alcotest.(check (list (list string)))
    "basic"
    [ [ "a"; "b" ]; [ "1"; "2" ] ]
    (Csv.parse_string "a,b\n1,2\n")

let test_csv_parse_quoted () =
  Alcotest.(check (list (list string)))
    "quotes, embedded comma/newline/quote"
    [ [ "x,y"; "he said \"hi\""; "two\nlines" ] ]
    (Csv.parse_string "\"x,y\",\"he said \"\"hi\"\"\",\"two\nlines\"\n")

let test_csv_roundtrip () =
  let rows = [ [ "plain"; "with,comma" ]; [ "with\"quote"; "multi\nline" ] ] in
  Alcotest.(check (list (list string)))
    "roundtrip" rows
    (Csv.parse_string (Csv.print_string rows))

let test_csv_crlf_and_last_line () =
  Alcotest.(check (list (list string)))
    "crlf + no trailing newline"
    [ [ "a"; "b" ]; [ "c"; "d" ] ]
    (Csv.parse_string "a,b\r\nc,d")

let test_csv_final_empty_quoted_field () =
  (* Regression: a final row consisting solely of an empty quoted field
     used to be dropped (the buffer was empty and no field had been
     flushed, so the trailing flush never fired). *)
  Alcotest.(check (list (list string)))
    "lone empty quoted field"
    [ [ "" ] ]
    (Csv.parse_string "\"\"");
  Alcotest.(check (list (list string)))
    "final row is an empty quoted field"
    [ [ "a"; "b" ]; [ "" ] ]
    (Csv.parse_string "a,b\n\"\"");
  Alcotest.(check (list (list string)))
    "empty quoted field after comma"
    [ [ "a"; "" ] ]
    (Csv.parse_string "a,\"\"")

let test_csv_load_save () =
  let path = Filename.temp_file "jimtest" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.save nums path;
      match Csv.load ~name:"nums" (R.schema nums) path with
      | Error e -> Alcotest.fail e
      | Ok r ->
        Alcotest.(check bool) "roundtrip contents" true (R.equal_contents r nums))

let test_csv_load_auto_types () =
  let path = Filename.temp_file "jimtest" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "id,price,name,flag,day\n\
         1,2.5,x,true,2020-01-02\n\
         2,3,y,false,2021-03-04\n";
      close_out oc;
      match Csv.load_auto path with
      | Error e -> Alcotest.fail e
      | Ok r ->
        Alcotest.(check (array string))
          "names"
          [| "id"; "price"; "name"; "flag"; "day" |]
          (Schema.names (R.schema r));
        let tys = Schema.types (R.schema r) in
        Alcotest.(check bool) "types inferred" true
          (tys = [| V.Tint; V.Tfloat; V.Tstring; V.Tbool; V.Tdate |]))

let test_csv_header_mismatch () =
  let path = Filename.temp_file "jimtest" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "wrong,header\n1,x\n";
      close_out oc;
      Alcotest.(check bool) "error" true
        (Result.is_error (Csv.load (R.schema nums) path)))

(* [Csv.canonical] writes non-negative ints itself: the text must be
   what [Value.to_string] and [Csv.print_string] make of the same rows,
   at every digit count and both ends of the int range. *)
let test_csv_canonical_fields () =
  let schema =
    Schema.of_list [ ("i", V.Tint); ("b", V.Tbool); ("f", V.Tfloat); ("s", V.Tstring) ]
  in
  let ints =
    [ 0; 7; 9; 10; 99; 100; 12345; -1; -9; -10; -12345; max_int; min_int; min_int + 1 ]
  in
  let rows =
    List.mapi
      (fun k i ->
        V.
          [
            Int i;
            (if k mod 3 = 2 then Null else Bool (k mod 2 = 0));
            (if k mod 2 = 0 then Float (float_of_int k /. 4.) else Null);
            (if k mod 2 = 0 then Str "say \"hi\", x" else Null);
          ])
      ints
    @ [ V.[ Null; Null; Null; Null ] ]
  in
  let r = R.of_rows schema rows in
  let reference =
    Csv.print_string
      ([ "i"; "b"; "f"; "s"; "int"; "bool"; "float"; "string" ]
      :: List.map (List.map V.to_string) rows)
  in
  Alcotest.(check string) "canonical" reference (Csv.canonical r)

(* ------------------------------------------------------------------ *)
(* The equi-join SQL oracle                                            *)

let db =
  Database.of_relations
    [
      R.of_rows ~name:"emp"
        (Schema.of_list
           [ ("eid", V.Tint); ("name", V.Tstring); ("dept", V.Tint) ])
        V.[
            [ Int 1; Str "ada"; Int 10 ];
            [ Int 2; Str "bob"; Int 20 ];
            [ Int 3; Str "eve"; Int 10 ];
          ];
      R.of_rows ~name:"dept"
        (Schema.of_list [ ("did", V.Tint); ("dname", V.Tstring) ])
        V.[ [ Int 10; Str "lab" ]; [ Int 20; Str "ops" ] ];
      R.of_rows ~name:"site"
        (Schema.of_list [ ("did", V.Tint); ("city", V.Tstring) ])
        V.[ [ Int 10; Str "lyon" ] ];
    ]

let exec sql =
  match Sql.exec db sql with
  | Ok r -> r
  | Error e -> Alcotest.fail (sql ^ " -> " ^ e)

let rejects sqls =
  List.iter
    (fun sql ->
      Alcotest.(check bool) ("error: " ^ sql) true (Result.is_error (Sql.exec db sql)))
    sqls

let test_sql_select_where () =
  let r = exec "SELECT * FROM emp WHERE TRUE" in
  Alcotest.(check int) "every row" 3 (R.cardinality r);
  Alcotest.(check (array string))
    "qualified schema" [| "emp.eid"; "emp.name"; "emp.dept" |]
    (Schema.names (R.schema r));
  Alcotest.(check int) "TRUE over two relations is the product" 6
    (R.cardinality (exec "SELECT * FROM emp, dept WHERE TRUE"))

let test_sql_join () =
  let r = exec "SELECT * FROM emp, dept WHERE emp.dept = dept.did" in
  Alcotest.(check int) "every employee has a department" 3 (R.cardinality r);
  Alcotest.(check int) "arity 5" 5 (R.arity r);
  Alcotest.(check bool) "bare names resolve alike" true
    (R.equal_contents r (exec "SELECT * FROM emp, dept WHERE did = dept"));
  Alcotest.(check int) "three relations, two atoms" 2
    (R.cardinality
       (exec "SELECT * FROM emp, dept, site WHERE dept = dept.did AND dept.did = site.did"));
  Alcotest.(check int) "an atom no row meets" 0
    (R.cardinality (exec "SELECT * FROM emp, dept WHERE dept = did AND name = dname"))

let test_sql_errors () =
  rejects
    [
      "SELECT * FROM nope WHERE TRUE";
      "SELECT * FROM emp, nope WHERE TRUE";
      "SELECT * FROM emp WHERE zzz = eid";
      "SELECT * FROM emp WHERE eid = dept.did";
      "SELECT * FROM dept, site WHERE did = city";
    ]

let test_sql_self_join_alias () =
  (* The fragment has no aliases, and a relation listed twice would
     repeat its qualified names. *)
  rejects
    [
      "SELECT * FROM emp AS a, emp AS b WHERE a.dept = b.dept";
      "SELECT * FROM emp a, emp b WHERE a.dept = b.dept";
      "SELECT * FROM emp, emp WHERE emp.dept = emp.dept";
    ]

let test_sql_projection_order_limit () =
  rejects
    [
      "SELECT name FROM emp WHERE TRUE";
      "SELECT DISTINCT * FROM emp WHERE TRUE";
      "SELECT * FROM emp WHERE TRUE ORDER BY name";
      "SELECT * FROM emp WHERE TRUE LIMIT 2";
      "SELECT * FROM emp WHERE dept = 10";
      "SELECT * FROM emp, dept WHERE dept = did OR eid = did";
      "SELECT * FROM emp, dept WHERE dept < did";
      "SELECT * FROM emp, dept WHERE NOT dept = did";
    ]

let test_sql_group_by () =
  rejects
    [
      "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept";
      "SELECT * FROM emp WHERE TRUE GROUP BY dept";
      "SELECT COUNT(*) FROM emp WHERE TRUE";
    ]

let test_lexer () =
  let spaced = exec "SELECT * FROM emp, dept WHERE emp.dept = dept.did AND emp.eid = emp.eid" in
  List.iter
    (fun sql ->
      Alcotest.(check bool) sql true (R.equal_contents spaced (exec sql)))
    [
      "select*from emp,dept where emp.dept=dept.did and emp.eid=emp.eid";
      "  Select *\n\tFROM emp ,\r\n dept WhErE emp.dept =dept.did AND\nemp.eid= emp.eid  ";
    ]

let test_lexer_errors () =
  rejects
    [
      "SELECT 'oops";
      "SELECT #";
      "SELECT * FROM emp WHERE 'x' = 'x'";
      "SELECT * FROM emp; WHERE TRUE";
      "SELECT * FROM emp WHERE TRUE;";
      "SELECT * FROM \"emp\" WHERE TRUE";
    ]

let test_parser_errors () =
  rejects
    [
      "";
      "   ";
      "SELECT";
      "SELECT *";
      "SELECT * FROM";
      "SELECT * FROM emp";
      "SELECT * FROM emp,";
      "SELECT * FROM emp WHERE";
      "SELECT * FROM emp WHERE eid";
      "SELECT * FROM emp WHERE eid =";
      "SELECT * FROM emp WHERE eid = eid AND";
      "SELECT * FROM emp WHERE eid = eid eid = eid";
      "SELECT * FROM emp WHERE TRUE TRUE";
      "SELECT * FROM emp WHERE TRUE AND eid = eid";
      "SELECT * FROM WHERE TRUE";
      "FROM emp SELECT * WHERE TRUE";
      "SELECT * FROM emp WHERE = eid";
      "\000\255\n,,=*";
    ];
  (* Every prefix of a statement, truncated anywhere, returns. *)
  let sql = "SELECT * FROM emp, dept WHERE emp.dept = dept.did AND name = dname" in
  for k = 0 to String.length sql do
    ignore (Sql.exec db (String.sub sql 0 k))
  done

(* ------------------------------------------------------------------ *)
(* Properties of the relation operators the join views build on        *)

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let emp_dept = R.product [ Database.find_exn db "emp"; Database.find_exn db "dept" ]

(* A random equi-join predicate over the emp x dept attributes. *)
let gen_pred =
  let n = R.arity emp_dept in
  QCheck.Gen.(
    map (P.of_pairs n) (list_size (int_bound 3) (pair (int_bound (n - 1)) (int_bound (n - 1)))))

let prop_select_fusion =
  qtest "select fusion"
    (QCheck.make
       ~print:(fun (p, q) -> P.to_string p ^ " ; " ^ P.to_string q)
       QCheck.Gen.(pair gen_pred gen_pred))
    (fun (p, q) ->
      R.equal_contents
        (R.satisfying p (R.satisfying q emp_dept))
        (R.satisfying (P.join p q) emp_dept))

let prop_distinct_idempotent =
  qtest ~count:100 "distinct idempotent"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 20))
    (fun k ->
      let rel =
        R.make ~name:"prod" (R.schema emp_dept)
          (List.filteri (fun i _ -> i mod (k + 1) <> 1) (R.tuples emp_dept))
      in
      R.equal_contents (R.distinct rel) (R.distinct (R.distinct rel)))

(* Differential: [Sql.exec] on a random conjunction of column equalities
   over emp x dept against a naive filter of the product rows.  Columns
   are printed qualified or bare (every bare name here is unambiguous). *)
let prop_sql_differential =
  let names = Schema.names (R.schema emp_dept) in
  let n = Array.length names in
  let column =
    QCheck.Gen.(
      let* i = int_bound (n - 1) in
      let* qualified = bool in
      let full = names.(i) in
      let dot = String.index full '.' in
      return (i, if qualified then full else String.sub full (dot + 1) (String.length full - dot - 1)))
  in
  let where atoms = String.concat " AND " (List.map (fun ((_, a), (_, b)) -> a ^ " = " ^ b) atoms) in
  qtest ~count:300 "SQL compiler = naive evaluation (random conjunctions)"
    (QCheck.make ~print:where QCheck.Gen.(list_size (int_range 1 4) (pair column column)))
    (fun atoms ->
      let sql = "SELECT * FROM emp, dept WHERE " ^ where atoms in
      let expected =
        List.filter
          (fun t -> List.for_all (fun ((i, _), (j, _)) -> V.equal (T.get t i) (T.get t j)) atoms)
          (R.tuples emp_dept)
      in
      match Sql.exec db sql with
      | Error e -> QCheck.Test.fail_report (sql ^ " -> " ^ e)
      | Ok got ->
        Schema.equal (R.schema got) (R.schema emp_dept)
        && List.equal T.equal (R.tuples got) expected)

(* ------------------------------------------------------------------ *)
(* CSV save/load round-trip on random relations whose cells exercise
   every quoting rule: separators, quotes, CR/LF, embedded newlines.    *)

let csv_rt_schema =
  Schema.of_list [ ("id", V.Tint); ("note", V.Tstring); ("tag", V.Tstring) ]

let gen_cell_text =
  (* Non-empty by construction: an empty string parses back as Null, a
     deliberate asymmetry of [Value.parse] this property must not trip
     over. *)
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            "plain"; "with,comma"; "with\"quote"; "\"quoted\""; "multi\nline";
            "crlf\r\nrow"; " padded "; "he said \"\"hi\"\""; ",,,"; "\r"; "\n";
          ];
        map
          (fun s -> "s" ^ s)
          (string_size ~gen:(oneofl [ 'a'; 'z'; ','; '"'; '\n'; '\r'; ' ' ])
             (int_bound 6));
      ])

let gen_csv_rows =
  QCheck.Gen.(
    let cell ty =
      match ty with
      | V.Tint ->
        oneof [ return V.Null; map (fun i -> V.Int i) (int_range (-1000) 1000) ]
      | _ -> oneof [ return V.Null; map (fun s -> V.Str s) gen_cell_text ]
    in
    list_size (int_bound 12)
      (flatten_l
         (List.map
            (fun c -> cell c.Schema.cty)
            (Schema.columns csv_rt_schema))))

let prop_csv_save_load_roundtrip =
  qtest "csv: save ∘ load = id (quoting edge cases)"
    (QCheck.make
       ~print:(fun rows ->
         Csv.print_string
           (List.map (List.map V.to_string) rows))
       gen_csv_rows)
    (fun rows ->
      let rel = R.of_rows ~name:"roundtrip" csv_rt_schema rows in
      let path = Filename.temp_file "jimcsvrt" ".csv" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Csv.save rel path;
          match Csv.load ~name:"roundtrip" csv_rt_schema path with
          | Error e -> QCheck.Test.fail_reportf "load failed: %s" e
          | Ok rel' -> R.equal_contents rel' rel))

(* ------------------------------------------------------------------ *)
(* The one-pass reader against the reader it replaced                  *)

(* The CSV reader as it was before the one-pass scanner, kept here
   verbatim as the reference: a [Buffer] per field, type inference over
   string lists, then [Value.parse] per cell. *)
module Old_csv = struct
  let parse_string ?(sep = ',') s =
    let n = String.length s in
    let rows = ref [] and fields = ref [] in
    let buf = Buffer.create 32 in
    let started = ref false in
    let flush_field () =
      fields := Buffer.contents buf :: !fields;
      Buffer.clear buf;
      started := false
    in
    let flush_row () =
      flush_field ();
      rows := List.rev !fields :: !rows;
      fields := []
    in
    let rec plain i =
      if i >= n then ()
      else
        match s.[i] with
        | c when c = sep ->
          flush_field ();
          plain (i + 1)
        | '\r' when i + 1 < n && s.[i + 1] = '\n' ->
          flush_row ();
          plain (i + 2)
        | '\n' | '\r' ->
          flush_row ();
          plain (i + 1)
        | '"' when Buffer.length buf = 0 ->
          started := true;
          quoted (i + 1)
        | c ->
          Buffer.add_char buf c;
          plain (i + 1)
    and quoted i =
      if i >= n then failwith "Csv: unterminated quoted field"
      else
        match s.[i] with
        | '"' when i + 1 < n && s.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted (i + 2)
        | '"' -> plain (i + 1)
        | c ->
          Buffer.add_char buf c;
          quoted (i + 1)
    in
    plain 0;
    if Buffer.length buf > 0 || !fields <> [] || !started then flush_row ();
    List.rev !rows

  let parse_rows schema name rows =
    match rows with
    | [] -> Error "empty CSV file"
    | header :: data ->
      let expected = Array.to_list (Schema.names schema) in
      if header <> expected then
        Error
          (Printf.sprintf "header mismatch: expected [%s], got [%s]"
             (String.concat "; " expected)
             (String.concat "; " header))
      else begin
        let exception Bad of string in
        try
          let parse_row rownum fields =
            if List.length fields <> Schema.arity schema then
              raise
                (Bad
                   (Printf.sprintf "row %d: expected %d fields, got %d" rownum
                      (Schema.arity schema) (List.length fields)));
            T.make
              (List.mapi
                 (fun i f ->
                   match V.parse (Schema.column schema i).Schema.cty f with
                   | Ok v -> v
                   | Error e -> raise (Bad (Printf.sprintf "row %d: %s" rownum e)))
                 fields)
          in
          Ok (R.make ~name schema (List.mapi (fun k -> parse_row (k + 2)) data))
        with
        | Bad msg -> Error msg
        | Invalid_argument msg -> Error msg
      end

  let infer_column_ty cells =
    let non_empty = List.filter (fun c -> c <> "") cells in
    let all parser = non_empty <> [] && List.for_all parser non_empty in
    if all (fun c -> int_of_string_opt c <> None) then V.Tint
    else if all (fun c -> float_of_string_opt c <> None) then V.Tfloat
    else if
      all (fun c ->
          match String.lowercase_ascii c with "true" | "false" -> true | _ -> false)
    then V.Tbool
    else if all (fun c -> match V.parse V.Tdate c with Ok _ -> true | Error _ -> false)
    then V.Tdate
    else V.Tstring

  let load_string ?sep ?(name = "csv") text =
    match parse_string ?sep text with
    | exception Failure msg -> Error msg
    | [] -> Error "empty CSV file"
    | header :: data ->
      let columns =
        List.mapi
          (fun i cname ->
            let cells = List.filter_map (fun row -> List.nth_opt row i) data in
            { Schema.cname; cty = infer_column_ty cells })
          header
      in
      (try parse_rows (Schema.make columns) name (header :: data)
       with Invalid_argument msg -> Error msg)
end

(* Texts that reach every branch of the reader: typed columns of
   well-formed and odd literals (signs, leading zeros, radix prefixes,
   underscores, exponents, nan, impossible dates, mixed kinds), quoted
   and quoted-empty fields holding separators, quotes, CR and LF, all
   three row breaks, ragged rows, duplicate names, and character soup. *)
let gen_reader_text =
  let literals = function
    | 0 ->
      [ "0"; "1"; "-1"; "42"; "+5"; "007"; "-0"; "1_000"; "0x1F"; "-0b11"; "0xFFFFFFFFF";
        "99999999999999999999"; "4611686018427387903"; "123456789012345678" ]
    | 1 ->
      [ "1.5"; "-0.0"; "0.0"; "nan"; "-nan"; "1e+20"; "2.5e-07"; "inf"; "3";
        "0.1"; "1."; ".5"; "+2.25"; "00.5"; "1234567890.12345";
        "0.30000000000000004"; "9007199254740993.0"; " 1.5" ]
    | 2 -> [ "true"; "false"; "TRUE"; "False"; "t"; "yes"; "0" ]
    | 3 ->
      [ "2024-02-29"; "1999-12-31"; "2023-02-29"; "0024-01-01"; "2024-1-5";
        "+2024-01-01"; "2024-13-01"; "2024-01-01-01" ]
    | _ ->
      [ "a"; "x y"; "a,b"; "say \"hi\""; "line1\nline2"; "cr\r"; "crlf\r\n";
        "nan"; "true"; " 1"; "a\"b"; "\"" ]
  in
  let needs_quotes f =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') f
  in
  let quote f =
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' f) ^ "\""
  in
  let open QCheck.Gen in
  let field f =
    if needs_quotes f then return (quote f)
    else frequency [ (5, return f); (1, return (quote f)) ]
  in
  let structured =
    let* arity = int_range 1 5 in
    let* kinds = list_repeat arity (int_range 0 4) in
    let* dup = frequency [ (12, return false); (1, return true) ] in
    let names =
      List.mapi (fun i _ -> if dup && i = 1 then "c0" else Printf.sprintf "c%d" i) kinds
    in
    let cell kind =
      frequency
        [
          (2, return "");
          (1, oneofl [ "\"\""; "" ]);
          (10, oneofl (literals kind));
          (1, int_range 0 4 >>= fun k -> oneofl (literals k));
        ]
    in
    let* nrows = int_range 0 8 in
    let* rows =
      list_repeat nrows
        (let* cells = flatten_l (List.map cell kinds) in
         frequency
           [
             (20, return cells);
             (1, return (List.tl cells));
             (1, return (cells @ [ "1" ]));
           ])
    in
    let line cells =
      let* fields = flatten_l (List.map field cells) in
      return (String.concat "," fields)
    in
    let* lines = flatten_l (List.map line (names :: rows)) in
    let* break = oneofl [ "\n"; "\n"; "\r\n"; "\r" ] in
    let* last = oneofl [ ""; break ] in
    return (String.concat break lines ^ last)
  in
  let soup =
    string_size ~gen:(oneofl [ 'a'; '1'; ','; '"'; '\r'; '\n'; '-'; '.' ]) (int_bound 30)
  in
  frequency [ (4, structured); (1, soup) ]

let same_value a b =
  match (a, b) with
  | V.Float x, V.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> V.identical a b

let same_relation a b =
  R.name a = R.name b
  && Schema.equal (R.schema a) (R.schema b)
  && R.cardinality a = R.cardinality b
  && List.for_all2
       (fun t u -> Array.length t = Array.length u && Array.for_all2 same_value t u)
       (R.tuples a) (R.tuples b)

let same_result a b =
  match (a, b) with
  | Ok a, Ok b -> same_relation a b
  | Error a, Error b -> String.equal a b
  | _ -> false

let prop_reader_matches_old =
  qtest ~count:1000 "one-pass reader = old reader"
    (QCheck.make ~print:String.escaped gen_reader_text)
    (fun text ->
      let rows =
        match Csv.parse_string text with
        | rows -> Ok rows
        | exception Failure m -> Error m
      and old_rows =
        match Old_csv.parse_string text with
        | rows -> Ok rows
        | exception Failure m -> Error m
      in
      if rows <> old_rows then QCheck.Test.fail_report "parse_string differs";
      let old = Old_csv.load_string ~name:"inline" text in
      if not (same_result (Csv.load_string ~name:"inline" text) old) then
        QCheck.Test.fail_report "load_string differs";
      (* [Csv.load] against a schema of random types: the header's own
         names, or one renamed. *)
      match old_rows with
      | Error _ | Ok [] -> true
      | Ok (header :: _) ->
        let rng = Random.State.make [| Hashtbl.hash text |] in
        let tys = [| V.Tint; V.Tfloat; V.Tbool; V.Tdate; V.Tstring |] in
        let names =
          if Random.State.int rng 8 = 0 then List.map (fun n -> n ^ "'") header
          else header
        in
        match
          Schema.make
            (List.map
               (fun cname -> { Schema.cname; cty = tys.(Random.State.int rng 5) })
               names)
        with
        | exception Invalid_argument _ -> true
        | schema ->
          let path = Filename.temp_file "jimreader" ".csv" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              let oc = open_out_bin path in
              output_string oc text;
              close_out oc;
              same_result
                (Csv.load ~name:"t" schema path)
                (Old_csv.parse_rows schema "t" (Old_csv.parse_string text))))

let () =
  Alcotest.run "relational"
    [
      ( "value",
        [
          Alcotest.test_case "null equality" `Quick test_value_equal_null;
          Alcotest.test_case "total order" `Quick test_value_compare_order;
          Alcotest.test_case "typed parse" `Quick test_value_parse;
          Alcotest.test_case "auto parse" `Quick test_value_parse_auto;
          Alcotest.test_case "date validation" `Quick test_value_date_validation;
        ] );
      ( "schema",
        [
          Alcotest.test_case "find / qualify" `Quick test_schema_find;
          Alcotest.test_case "ambiguous bare name" `Quick
            test_schema_ambiguous_bare;
          Alcotest.test_case "duplicate rejected" `Quick test_schema_duplicate;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "signature" `Quick test_tuple_signature;
          Alcotest.test_case "signature of nulls" `Quick
            test_tuple_signature_nulls;
          Alcotest.test_case "satisfies" `Quick test_tuple_satisfies;
        ] );
      ( "relation",
        [
          Alcotest.test_case "construction checks" `Quick
            test_relation_make_checks;
          Alcotest.test_case "select/project" `Quick test_relation_select_project;
          Alcotest.test_case "distinct" `Quick test_relation_distinct;
          Alcotest.test_case "product" `Quick test_relation_product;
          Alcotest.test_case "equi-join" `Quick test_relation_equi_join;
          Alcotest.test_case "set operations" `Quick test_relation_set_ops;
          Alcotest.test_case "deterministic sample" `Quick
            test_relation_sample_deterministic;
          Alcotest.test_case "satisfying" `Quick test_relation_satisfying;
        ] );
      ( "csv",
        [
          Alcotest.test_case "parse simple" `Quick test_csv_parse_simple;
          Alcotest.test_case "parse quoted" `Quick test_csv_parse_quoted;
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "crlf / last line" `Quick
            test_csv_crlf_and_last_line;
          Alcotest.test_case "final empty quoted field" `Quick
            test_csv_final_empty_quoted_field;
          Alcotest.test_case "load/save file" `Quick test_csv_load_save;
          Alcotest.test_case "load_auto infers types" `Quick
            test_csv_load_auto_types;
          Alcotest.test_case "header mismatch" `Quick test_csv_header_mismatch;
          Alcotest.test_case "canonical fields" `Quick test_csv_canonical_fields;
          prop_csv_save_load_roundtrip;
          prop_reader_matches_old;
        ] );
      ( "sql-parse",
        [
          Alcotest.test_case "lexer" `Quick test_lexer;
          Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
          Alcotest.test_case "parser errors" `Quick test_parser_errors;
        ] );
      ( "sql-exec",
        [
          Alcotest.test_case "select/where" `Quick test_sql_select_where;
          Alcotest.test_case "join" `Quick test_sql_join;
          Alcotest.test_case "project/order/limit" `Quick
            test_sql_projection_order_limit;
          Alcotest.test_case "self join with aliases" `Quick
            test_sql_self_join_alias;
          Alcotest.test_case "errors" `Quick test_sql_errors;
          Alcotest.test_case "group by" `Quick test_sql_group_by;
        ] );
      ("algebra-props", [ prop_sql_differential; prop_select_fusion; prop_distinct_idempotent ]);
    ]
