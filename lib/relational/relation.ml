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
let iteri f r = Array.iteri f r.rows
let fold f init r = Array.fold_left f init r.rows

let with_rows r rows = { r with rows }

let select pred r =
  with_rows r (Array.of_list (List.filter pred (tuples r)))

let project idxs r =
  {
    r with
    schema = Schema.project r.schema idxs;
    rows = Array.map (fun t -> Tuple0.project t idxs) r.rows;
  }

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

let product = function
  | [] -> invalid_arg "Relation.product: no relations"
  | rs ->
    let schema =
      Schema.concat_qualified (List.map (fun r -> (r.rname, r.schema)) rs)
    in
    (* Left-major: the last relation's rows vary fastest. *)
    let rows =
      List.fold_left
        (fun acc r ->
          let m = Array.length r.rows in
          Array.init (Array.length acc * m) (fun k ->
              Tuple0.concat acc.(k / m) r.rows.(k mod m)))
        [| [||] |] rs
    in
    { rname = String.concat "_x_" (List.map name rs); schema; rows }

let union a b =
  let ta = Schema.types a.schema and tb = Schema.types b.schema in
  if Array.length ta <> Array.length tb || not (Array.for_all2 ( = ) ta tb) then
    invalid_arg "Relation.union: incompatible schemas";
  distinct (with_rows a (Array.append a.rows b.rows))

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
