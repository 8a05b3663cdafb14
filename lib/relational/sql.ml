let ( let* ) = Result.bind

let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let is_symbol c = c = '*' || c = ',' || c = '='

(* The statement's words: each symbol alone, and each maximal run of
   other non-blank characters (a keyword or a name). *)
let words text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_blank text.[i] then go (i + 1) acc
    else if is_symbol text.[i] then go (i + 1) (String.make 1 text.[i] :: acc)
    else begin
      let j = ref i in
      while !j < n && not (is_blank text.[!j] || is_symbol text.[!j]) do
        incr j
      done;
      go !j (String.sub text i (!j - i) :: acc)
    end
  in
  go 0 []

let keywords = [ "SELECT"; "FROM"; "WHERE"; "AND"; "TRUE" ]
let is_word k w = String.equal (String.uppercase_ascii w) k

let got = function
  | [] -> "the end of the statement"
  | w :: _ -> Printf.sprintf "%S" w

let expect k = function
  | w :: ws when is_word k w -> Ok ws
  | ws -> Error (Printf.sprintf "expected %s, got %s" k (got ws))

let name = function
  | w :: ws when (not (is_symbol w.[0])) && not (List.exists (fun k -> is_word k w) keywords)
    ->
    Ok (w, ws)
  | ws -> Error ("expected a name, got " ^ got ws)

let rec relations ws =
  let* r, ws = name ws in
  match ws with
  | "," :: ws ->
    let* rs, ws = relations ws in
    Ok (r :: rs, ws)
  | _ -> Ok ([ r ], ws)

let rec atoms ws =
  let* a, ws = name ws in
  let* ws = expect "=" ws in
  let* b, ws = name ws in
  match ws with
  | [] -> Ok [ (a, b) ]
  | w :: ws when is_word "AND" w ->
    let* rest = atoms ws in
    Ok ((a, b) :: rest)
  | ws -> Error ("expected AND or the end of the statement, got " ^ got ws)

(* [SELECT * FROM r1, ..., rk WHERE (TRUE | a = b AND ...)]: the FROM
   names and the equated column pairs. *)
let parse text =
  let ws = words text in
  let* ws = expect "SELECT" ws in
  let* ws = expect "*" ws in
  let* ws = expect "FROM" ws in
  let* from, ws = relations ws in
  let* ws = expect "WHERE" ws in
  match ws with
  | [ w ] when is_word "TRUE" w -> Ok (from, [])
  | _ ->
    let* eqs = atoms ws in
    Ok (from, eqs)

let rec all f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = all f xs in
    Ok (y :: ys)

let exec db text =
  let* from, eqs = parse text in
  let* rels =
    all
      (fun r ->
        match Database.find db r with
        | Some rel -> Ok rel
        | None -> Error (Printf.sprintf "unknown relation %S" r))
      from
  in
  let* product =
    match Relation.product rels with
    | p -> Ok p
    | exception Invalid_argument msg -> Error msg
  in
  let column c =
    match Schema.find (Relation.schema product) c with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "unknown or ambiguous column %S" c)
  in
  let* pairs =
    all
      (fun (a, b) ->
        let* i = column a in
        let* j = column b in
        Ok (i, j))
      eqs
  in
  Ok
    (Relation.select
       (fun t -> List.for_all (fun (i, j) -> Value.equal (Tuple0.get t i) (Tuple0.get t j)) pairs)
       product)
