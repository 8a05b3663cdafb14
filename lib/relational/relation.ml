module Partition = Jim_partition.Partition

type t = { rname : string; schema : Schema.t; rows : Tuple0.t array }

let check_tuple schema (tup : Tuple0.t) =
  if Tuple0.arity tup <> Schema.arity schema then
    invalid_arg "Relation: tuple arity differs from schema arity";
  for i = 0 to Array.length tup - 1 do
    match Value.type_of tup.(i) with
    | None -> ()
    | Some ty ->
      if ty <> (Schema.column schema i).Schema.cty then
        invalid_arg
          (Printf.sprintf "Relation: type mismatch in column %s"
             (Schema.column schema i).Schema.cname)
  done

let make ?(name = "r") schema tuples =
  List.iter (check_tuple schema) tuples;
  { rname = name; schema; rows = Array.of_list tuples }

let of_array ?(name = "r") schema rows =
  Array.iter (check_tuple schema) rows;
  { rname = name; schema; rows }

let of_rows ?name schema rows = make ?name schema (List.map Tuple0.make rows)

let name r = r.rname
let schema r = r.schema
let arity r = Schema.arity r.schema
let cardinality r = Array.length r.rows

let tuple r i =
  if i < 0 || i >= Array.length r.rows then invalid_arg "Relation.tuple";
  r.rows.(i)

let tuples r = Array.to_list r.rows
let to_seq r = Array.to_seq r.rows
let iteri f r = Array.iteri f r.rows
let fold f init r = Array.fold_left f init r.rows

let rename rname r = { r with rname }

let with_rows r rows = { r with rows }

let select pred r =
  with_rows r (Array.of_list (List.filter pred (tuples r)))

let project idxs r =
  {
    r with
    schema = Schema.project r.schema idxs;
    rows = Array.map (fun t -> Tuple0.project t idxs) r.rows;
  }

let project_names cnames r =
  project (List.map (Schema.find_exn r.schema) cnames) r

let distinct r =
  let seen = Hashtbl.create (2 * Array.length r.rows) in
  let keep t =
    let key = Array.map Value.hash t |> Array.to_list in
    let bucket = try Hashtbl.find seen key with Not_found -> [] in
    if List.exists (Tuple0.equal t) bucket then false
    else begin
      Hashtbl.replace seen key (t :: bucket);
      true
    end
  in
  select keep r

let sort_by ?(desc = false) keys r =
  let cmp a b =
    let c =
      List.fold_left
        (fun acc k ->
          if acc <> 0 then acc else Value.compare (Tuple0.get a k) (Tuple0.get b k))
        0 keys
    in
    if desc then -c else c
  in
  let rows = Array.copy r.rows in
  Array.stable_sort cmp rows;
  { r with rows }

let limit k r =
  with_rows r (Array.sub r.rows 0 (min k (Array.length r.rows)))

let sample ?(seed = 42) k r =
  let n = Array.length r.rows in
  if k >= n then r
  else begin
    (* Partial Fisher–Yates over the index array, then restore row order
       so sampling commutes with rendering. *)
    let st = Random.State.make [| seed |] in
    let idx = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = i + Random.State.int st (n - i) in
      let tmp = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- tmp
    done;
    let chosen = Array.sub idx 0 k in
    Array.sort Stdlib.compare chosen;
    with_rows r (Array.map (fun i -> r.rows.(i)) chosen)
  end

let product_schema a b =
  Schema.concat_qualified [ (a.rname, a.schema); (b.rname, b.schema) ]

let product a b =
  let rows =
    Array.init
      (Array.length a.rows * Array.length b.rows)
      (fun k ->
        let i = k / Array.length b.rows and j = k mod Array.length b.rows in
        Tuple0.concat a.rows.(i) b.rows.(j))
  in
  { rname = a.rname ^ "_x_" ^ b.rname; schema = product_schema a b; rows }

let equi_join ~on a b =
  let key_of cols (t : Tuple0.t) = List.map (fun c -> Tuple0.get t c) cols in
  let lcols = List.map fst on and rcols = List.map snd on in
  let index = Hashtbl.create (2 * Array.length b.rows) in
  Array.iteri
    (fun j t ->
      let key = key_of rcols t in
      if not (List.exists Value.is_null key) then
        Hashtbl.add index key j)
    b.rows;
  let out = ref [] in
  (* Hashtbl.add stacks bindings (latest first); collect matches and
     re-reverse to keep right-row order within each left row. *)
  Array.iter
    (fun ta ->
      let key = key_of lcols ta in
      if not (List.exists Value.is_null key) then begin
        let matches = Hashtbl.find_all index key in
        List.iter
          (fun j -> out := Tuple0.concat ta b.rows.(j) :: !out)
          (List.rev matches)
      end)
    a.rows;
  {
    rname = a.rname ^ "_join_" ^ b.rname;
    schema = product_schema a b;
    rows = Array.of_list (List.rev !out);
  }

let check_compatible op a b =
  let ta = Schema.types a.schema and tb = Schema.types b.schema in
  if Array.length ta <> Array.length tb || not (Array.for_all2 ( = ) ta tb) then
    invalid_arg ("Relation." ^ op ^ ": incompatible schemas")

let union a b =
  check_compatible "union" a b;
  distinct (with_rows a (Array.append a.rows b.rows))

let mem_tuple rows t = Array.exists (Tuple0.equal t) rows

let diff a b =
  check_compatible "diff" a b;
  select (fun t -> not (mem_tuple b.rows t)) a

let intersect a b =
  check_compatible "intersect" a b;
  select (fun t -> mem_tuple b.rows t) a

type aggregate = Count | Sum of int | Min of int | Max of int | Avg of int

let aggregate_ty schema = function
  | Count -> Value.Tint
  | Avg _ -> Value.Tfloat
  | Sum c | Min c | Max c -> (Schema.column schema c).Schema.cty

let eval_aggregate group = function
  | Count -> Value.Int (List.length group)
  | Sum c ->
    List.fold_left
      (fun acc t ->
        let v = Tuple0.get t c in
        if Value.is_null v then acc else if Value.is_null acc then v
        else Value.add acc v)
      Value.Null group
  | Min c ->
    List.fold_left
      (fun acc t ->
        let v = Tuple0.get t c in
        if Value.is_null v then acc
        else if Value.is_null acc || Value.compare v acc < 0 then v
        else acc)
      Value.Null group
  | Max c ->
    List.fold_left
      (fun acc t ->
        let v = Tuple0.get t c in
        if Value.is_null v then acc
        else if Value.is_null acc || Value.compare v acc > 0 then v
        else acc)
      Value.Null group
  | Avg c ->
    let sum, cnt =
      List.fold_left
        (fun (s, k) t ->
          match Tuple0.get t c with
          | Value.Null -> (s, k)
          | Value.Int i -> (s +. float_of_int i, k + 1)
          | Value.Float f -> (s +. f, k + 1)
          | _ -> invalid_arg "Relation.group_by: Avg on non-numeric column")
        (0.0, 0) group
    in
    if cnt = 0 then Value.Null else Value.Float (sum /. float_of_int cnt)

let group_by keys aggs r =
  let groups = Hashtbl.create 64 in
  let order = ref [] in
  Array.iter
    (fun t ->
      let key = List.map (fun k -> Tuple0.get t k) keys in
      if not (Hashtbl.mem groups key) then order := key :: !order;
      Hashtbl.replace groups key
        (t :: (try Hashtbl.find groups key with Not_found -> [])))
    r.rows;
  let schema =
    Schema.make
      (List.map (fun k -> Schema.column r.schema k) keys
      @ List.map
          (fun (n, a) -> { Schema.cname = n; cty = aggregate_ty r.schema a })
          aggs)
  in
  let rows =
    List.rev_map
      (fun key ->
        let group = List.rev (Hashtbl.find groups key) in
        Array.of_list (key @ List.map (fun (_, a) -> eval_aggregate group a) aggs))
      !order
  in
  { rname = r.rname ^ "_grouped"; schema; rows = Array.of_list rows }

let signatures r = Array.map Tuple0.signature r.rows

let satisfying theta r = select (Tuple0.satisfies theta) r

let equal_contents a b =
  Schema.equal a.schema b.schema
  && Array.length a.rows = Array.length b.rows
  &&
  let sort rows =
    let rows = Array.copy rows in
    Array.sort Tuple0.compare rows;
    rows
  in
  let ra = sort a.rows and rb = sort b.rows in
  Array.for_all2 Tuple0.equal ra rb

let pp fmt r =
  Format.fprintf fmt "%s%a [%d rows]" r.rname Schema.pp r.schema
    (cardinality r)
