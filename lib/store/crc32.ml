(* Built eagerly: a lazy table forced by two threads at once raises
   [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let digest ?(crc = 0l) buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Crc32.digest";
  let c = ref (Int32.lognot crc) in
  for i = off to off + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get buf i)))) 0xffl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.lognot !c

let digest_string s =
  digest (Bytes.unsafe_of_string s) 0 (String.length s)

let to_hex c = Printf.sprintf "%08lx" (Int32.logand c 0xffffffffl)
