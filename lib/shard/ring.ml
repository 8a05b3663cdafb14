(* Consistent hashing over CRC-32: each member contributes [vnodes]
   points on a 2^32 ring; a key belongs to the first point clockwise
   from its own hash.  Membership changes therefore move only the keys
   whose owning arc changed — about 1/(n+1) of them when a member joins
   an n-member ring — instead of rehashing everything, which is what
   lets a shard join or die without disturbing the sessions pinned
   elsewhere. *)

type t = {
  vnodes : int;
  members : string list;  (* sorted, distinct *)
  points : (int * string) array;  (* (hash, member), sorted *)
}

let hash s =
  Int32.to_int (Jim_store.Crc32.digest_string s) land 0xffffffff

let build vnodes members =
  let members = List.sort_uniq compare members in
  let points =
    List.concat_map
      (fun m ->
        List.init vnodes (fun i -> (hash (Printf.sprintf "%s#%d" m i), m)))
      members
    |> Array.of_list
  in
  (* Ties (two vnodes hashing identically) break by member name, so the
     ring is a pure function of the membership set. *)
  Array.sort compare points;
  { vnodes; members; points }

let create ?(vnodes = 64) members =
  if vnodes < 1 then invalid_arg "Ring.create: vnodes must be positive";
  build vnodes members

let members t = t.members
let vnodes t = t.vnodes
let add t m = build t.vnodes (m :: t.members)
let remove t m = build t.vnodes (List.filter (fun x -> x <> m) t.members)

let place t key =
  let n = Array.length t.points in
  if n = 0 then None
  else begin
    let h = hash key in
    (* First point with hash >= h; wrap to points.(0) past the end. *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
    done;
    let i = if !lo = n then 0 else !lo in
    Some (snd t.points.(i))
  end

let session_key id = "s:" ^ string_of_int id
let fingerprint_key fp = "fp:" ^ fp
