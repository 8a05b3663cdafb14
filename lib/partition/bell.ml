let max_exact = 24

(* Bell triangle in native ints, up to max_exact (Bell 24 < 2^62).
   Both tables are built eagerly at start-up (microseconds), so sessions
   running on concurrent threads never race to force a shared lazy
   (the loser of such a race gets [CamlinternalLazy.Undefined]). *)
let exact_table =
  let b = Array.make (max_exact + 1) 1 in
  let row = ref [| 1 |] in
  for n = 1 to max_exact do
    let prev = !row in
    let cur = Array.make (n + 1) 0 in
    cur.(0) <- prev.(n - 1);
    for k = 1 to n do
      cur.(k) <- cur.(k - 1) + prev.(k - 1)
    done;
    b.(n) <- cur.(0);
    row := cur
  done;
  b

let bell n =
  if n < 0 || n > max_exact then invalid_arg "Bell.bell: out of range";
  exact_table.(n)

let max_float_n = 218

let float_table =
  let b = Array.make (max_float_n + 1) 1.0 in
  let row = ref [| 1.0 |] in
  (try
     for n = 1 to max_float_n do
       let prev = !row in
       let cur = Array.make (n + 1) 0.0 in
       cur.(0) <- prev.(n - 1);
       for k = 1 to n do
         cur.(k) <- cur.(k - 1) +. prev.(k - 1)
       done;
       b.(n) <- cur.(0);
       if b.(n) = infinity then raise Exit;
       row := cur
     done
   with Exit -> ());
  (* Entries left at 1.0 past an overflow point are patched to inf. *)
  let overflowed = ref false in
  for n = 1 to max_float_n do
    if b.(n) = infinity then overflowed := true
    else if !overflowed then b.(n) <- infinity
  done;
  b

let bell_float n =
  if n < 0 then invalid_arg "Bell.bell_float: negative";
  if n > max_float_n then infinity else float_table.(n)

let count_refinements sizes =
  List.fold_left (fun acc s -> acc *. bell_float s) 1.0 sizes
