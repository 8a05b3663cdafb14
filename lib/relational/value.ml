type ty = Tint | Tfloat | Tstring | Tbool | Tdate

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Date of { y : int; m : int; d : int }

let type_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstring
  | Bool _ -> Some Tbool
  | Date _ -> Some Tdate

let ty_name = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tstring -> "string"
  | Tbool -> "bool"
  | Tdate -> "date"

let identical a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | Date a, Date b -> a.y = b.y && a.m = b.m && a.d = b.d
  | (Null | Int _ | Float _ | Str _ | Bool _ | Date _), _ -> false

let equal a b =
  match (a, b) with
  | Null, _ | _, Null -> false
  | _ -> identical a b

let ty_order = function
  | Null -> 0
  | Int _ -> 1
  | Float _ -> 2
  | Str _ -> 3
  | Bool _ -> 4
  | Date _ -> 5

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Date a, Date b -> Stdlib.compare (a.y, a.m, a.d) (b.y, b.m, b.d)
  | _ -> Stdlib.compare (ty_order a) (ty_order b)

let hash = Hashtbl.hash

let is_null = function Null -> true | _ -> false

let to_string = function
  | Null -> ""
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%g" f
  | Str s -> s
  | Bool b -> if b then "true" else "false"
  | Date { y; m; d } -> Printf.sprintf "%04d-%02d-%02d" y m d

let pp fmt v = Format.pp_print_string fmt (to_string v)

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0 then 29 else 28
  | _ -> 0

let date y m d =
  if m < 1 || m > 12 || d < 1 || d > days_in_month y m then
    invalid_arg "Value.date: impossible date";
  Date { y; m; d }

let parse_date s =
  match String.split_on_char '-' s with
  | [ ys; ms; ds ] -> begin
    match (int_of_string_opt ys, int_of_string_opt ms, int_of_string_opt ds) with
    | Some y, Some m, Some d when m >= 1 && m <= 12 && d >= 1 && d <= days_in_month y m ->
      Some (Date { y; m; d })
    | _ -> None
  end
  | _ -> None

let parse ty s =
  if s = "" then Ok Null
  else
    match ty with
    | Tint -> (
      match int_of_string_opt s with
      | Some i -> Ok (Int i)
      | None -> Error (Printf.sprintf "not an int: %S" s))
    | Tfloat -> (
      match float_of_string_opt s with
      | Some f -> Ok (Float f)
      | None -> Error (Printf.sprintf "not a float: %S" s))
    | Tstring -> Ok (Str s)
    | Tbool -> (
      match String.lowercase_ascii s with
      | "true" | "t" | "1" | "yes" -> Ok (Bool true)
      | "false" | "f" | "0" | "no" -> Ok (Bool false)
      | _ -> Error (Printf.sprintf "not a bool: %S" s))
    | Tdate -> (
      match parse_date s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "not a date (YYYY-MM-DD): %S" s))

let parse_auto s =
  if s = "" then Null
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> (
        match String.lowercase_ascii s with
        | "true" -> Bool true
        | "false" -> Bool false
        | _ -> ( match parse_date s with Some v -> v | None -> Str s)))
