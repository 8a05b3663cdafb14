type 'a t = { encode : 'a -> Json.t; decode : Json.t -> ('a, string) result }

let ( let* ) = Result.bind
let to_json c = c.encode
let of_json c = c.decode
let to_string c x = Json.to_string (c.encode x)
let of_string c s = Result.bind (Json.of_string s) c.decode
let int = { encode = (fun i -> Json.Int i); decode = Json.as_int }
let float = { encode = (fun f -> Json.Float f); decode = Json.as_float }
let bool = { encode = (fun b -> Json.Bool b); decode = Json.as_bool }
let string = { encode = (fun s -> Json.String s); decode = Json.as_string }

let list c =
  let rec decode_all acc = function
    | [] -> Ok (List.rev acc)
    | v :: vs ->
      let* x = c.decode v in
      decode_all (x :: acc) vs
  in
  {
    encode = (fun xs -> Json.List (List.map c.encode xs));
    decode = (fun v -> Result.bind (Json.as_list v) (decode_all []));
  }

let nullable c =
  {
    encode = (function None -> Json.Null | Some x -> c.encode x);
    decode =
      (function
      | Json.Null -> Ok None | v -> Result.map Option.some (c.decode v));
  }

let conv encode decode c =
  {
    encode = (fun x -> c.encode (encode x));
    decode = (fun v -> Result.bind (c.decode v) decode);
  }

let enum expected cases =
  let tagged = List.map (fun (x, tag) -> (Json.String tag, x)) cases in
  {
    encode = (fun x -> Json.String (List.assq x cases));
    decode =
      (fun v ->
        match List.assoc_opt v tagged with
        | Some x -> Ok x
        | None -> Error (expected ^ Json.to_string v));
  }

(* A field reads itself out of an object and prepends its members to the
   ones after it: most fields are one member, a [pair] is two and an
   omitted [pair] or [derived] none. *)
type 'a field = {
  put : 'a -> (string * Json.t) list -> (string * Json.t) list;
  get : Json.t -> ('a, string) result;
}

let req name c =
  {
    put = (fun x rest -> (name, c.encode x) :: rest);
    get = (fun v -> Result.bind (Json.field name v) c.decode);
  }

let opt name c =
  let c = nullable c in
  {
    put = (fun x rest -> (name, c.encode x) :: rest);
    get =
      (fun v ->
        match Json.member name v with None -> Ok None | Some f -> c.decode f);
  }

let pair a ca b cb =
  {
    put =
      (fun x rest ->
        match x with
        | None -> rest
        | Some (x, y) -> (a, ca.encode x) :: (b, cb.encode y) :: rest);
    get =
      (fun v ->
        match (Json.member a v, Json.member b v) with
        | None, None -> Ok None
        | Some x, Some y ->
          let* x = ca.decode x in
          let* y = cb.decode y in
          Ok (Some (x, y))
        | _ -> Error (Printf.sprintf "%s and %s must appear together" a b));
  }

let derived name c =
  {
    put =
      (fun x rest ->
        match x with None -> rest | Some x -> (name, c.encode x) :: rest);
    get = (fun _ -> Ok None);
  }

type _ fields =
  | [] : unit fields
  | ( :: ) : 'a field * 'b fields -> ('a * 'b) fields

type _ values = [] : unit values | ( :: ) : 'a * 'b values -> ('a * 'b) values

let rec put_fields : type h. h fields -> h values -> _ -> _ =
 fun fields values rest ->
  match (fields, values) with
  | [], [] -> rest
  | f :: fs, x :: xs -> f.put x (put_fields fs xs rest)

let rec get_fields : type h. h fields -> Json.t -> (h values, string) result =
 fun fields v ->
  match fields with
  | [] -> Ok []
  | f :: fs ->
    let* x = f.get v in
    let* xs = get_fields fs v in
    Ok (x :: xs)

let obj fields inj prj =
  {
    encode = (fun x -> Json.Obj (put_fields fields (prj x) []));
    decode = (fun v -> Result.map inj (get_fields fields v));
  }

type 'a case =
  | Case : {
      tag : string;
      fields : 'h fields;
      inj : 'h values -> 'a;
      prj : 'a -> 'h values option;
    }
      -> 'a case

let case tag fields inj prj = Case { tag; fields; inj; prj }

let variant ?(head : (string * Json.t) list = []) key what (cases : _ list) =
  let table = Hashtbl.create 32 in
  List.iter (fun (Case c as case) -> Hashtbl.replace table c.tag case) cases;
  let rec encode x : _ case list -> Json.t = function
    | [] -> invalid_arg ("Codec.variant: no case encodes this " ^ what)
    | Case c :: cases -> (
      match c.prj x with
      | Some xs ->
        let fields = put_fields c.fields xs [] in
        Json.Obj (head @ ((key, Json.String c.tag) :: fields))
      | None -> encode x cases)
  in
  {
    encode = (fun x -> encode x cases);
    decode =
      (fun v ->
        let* tag = Result.bind (Json.field key v) Json.as_string in
        match Hashtbl.find_opt table tag with
        | Some (Case c) -> Result.map c.inj (get_fields c.fields v)
        | None -> Error (Printf.sprintf "unknown %s %S" what tag));
  }
