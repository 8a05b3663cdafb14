module M = Map.Make (String)

type t = Relation.t M.t

let empty = M.empty
let add r db = M.add (Relation.name r) r db
let of_relations rs = List.fold_left (fun db r -> add r db) empty rs
let find db name = M.find_opt name db

let find_exn db name =
  match find db name with Some r -> r | None -> raise Not_found

let names db = List.map fst (M.bindings db)

let pp fmt db =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list Relation.pp)
    (List.map snd (M.bindings db))
