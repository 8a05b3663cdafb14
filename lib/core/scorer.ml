module Pairs = Jim_partition.Pairs

(* The pick-scoped scoring engine every strategy routes through.

   A lookahead strategy scores each informative class c by re-classifying
   every informative class i under the two hypothetical states "c labelled
   +" and "c labelled -" — O(k^2) classifications per question, each one a
   lattice meet.  Classes and states carry their partitions as pair
   words ([Jim_partition.Pairs]), so a meet is a [land] per word and a
   refinement test a [land lnot].  Two observations make this cheap:

   - [meet s sig_i] only depends on the state's canonical predicate [s],
     not on the candidate: compute it once per [s] and share it across
     candidates (every negative-branch classification, and the
     certain-negative test of the positive branch of candidates whose
     meet leaves [s] unchanged, reuses it);
   - hypothetical states repeat within a pick — across candidates
     (distinct signatures with equal clipped meets), across the two
     count/cardinality passes, and across the inner sweeps of a depth-2
     lookahead — so classifications are memoised in a [memo] keyed by
     the state's pair words x class index.  A memo lives for one pick (or
     one top-k ranking) and is then dropped, so no session or instance
     holds memo rows between questions. *)

(* A status row ([Bytes.t], one byte per class) is keyed by the words of
   the state's [s] and negatives: the negatives are sorted, so equal
   states have equal keys, like [State.key], without packing partitions.
   It is [unset] until computed, then one code per status.  A meet row
   ([Pairs.t array], one slot per class, keyed by the words of [s])
   holds the physical sentinel [no_meet] until computed.  The memo also
   counts the pick's work in plain fields, handed on once by [take]: the
   hot loops touch no atomic. *)
type memo = {
  rows : (Pairs.t * Pairs.t list, Bytes.t) Hashtbl.t;
  meet_rows : (Pairs.t, Pairs.t array) Hashtbl.t;
  mutable meets : int;
  mutable classified : int;
  mutable hits : int;
  mutable misses : int;
}

let new_memo () =
  {
    rows = Hashtbl.create 16;
    meet_rows = Hashtbl.create 4;
    meets = 0;
    classified = 0;
    hits = 0;
    misses = 0;
  }

let take m =
  let d =
    {
      Metrics.zero with
      meets = m.meets;
      classify_calls = m.classified;
      cache_hits = m.hits;
      cache_misses = m.misses;
    }
  in
  m.meets <- 0;
  m.classified <- 0;
  m.hits <- 0;
  m.misses <- 0;
  d

let find_or_add table key fresh =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
    let v = fresh () in
    Hashtbl.add table key v;
    v

(* Status bytes.  Decoding is a match on the code, so a read allocates
   nothing. *)
let unset = '\000'

let encode = function
  | State.Certain_pos -> '\001'
  | State.Certain_neg -> '\002'
  | State.Informative -> '\003'

let decode = function
  | '\001' -> State.Certain_pos
  | '\002' -> State.Certain_neg
  | _ -> State.Informative

(* The "not computed yet" meet slot: a private one-word value.  A real
   meet is a fresh value from [Pairs.meet], so it is never physically
   equal to this one (a zero-word sentinel would not do: it would be the
   shared empty array, which is also the meet of two partitions of fewer
   than two attributes). *)
let no_meet = Pairs.top 2

type t = {
  st : State.t;
  classes : Sigclass.cls array;
  informative : int array;
  meets : Pairs.t array;
      (** per class: [meet st.s sig_i], [no_meet] until computed *)
  hyps : (State.t option * State.t option) option array;
      (** per candidate: the two hypothetical states *)
  memo : memo;
}

let informative_gen classes status =
  let k = Array.length classes in
  let keep = Array.make k false in
  let count = ref 0 in
  for i = 0 to k - 1 do
    if status i = State.Informative then begin
      keep.(i) <- true;
      incr count
    end
  done;
  let out = Array.make !count 0 in
  let j = ref 0 in
  for i = 0 to k - 1 do
    if keep.(i) then begin
      out.(!j) <- i;
      incr j
    end
  done;
  out

(* The meet table only depends on the state's canonical predicate [s],
   so it is interned under [s]'s words: every scorer of the pick whose
   state has the same [s] (the pick's own, and the inner sweeps of its
   negative branches) reuses the same row. *)
let meets_row memo classes st =
  find_or_add memo.meet_rows st.State.s_bits (fun () ->
      Array.make (Array.length classes) no_meet)

let create ?(memo = new_memo ()) st classes informative =
  {
    st;
    classes;
    informative;
    meets = meets_row memo classes st;
    hyps = Array.make (Array.length classes) None;
    memo;
  }

let state sc = sc.st
let informative sc = sc.informative

let meet_s sc i =
  let m = sc.meets.(i) in
  if m != no_meet then m
  else begin
    sc.memo.meets <- sc.memo.meets + 1;
    let m = Pairs.meet sc.st.State.s_bits sc.classes.(i).Sigclass.bits in
    sc.meets.(i) <- m;
    m
  end

let meet_rank sc i = Pairs.rank sc.st.State.n (meet_s sc i)

let hypothetical sc c =
  match sc.hyps.(c) with
  | Some h -> h
  | None ->
    let cls = sc.classes.(c) in
    let branch label =
      (* State.add computes one meet internally. *)
      sc.memo.meets <- sc.memo.meets + 1;
      match State.add_bits sc.st label cls.Sigclass.sg cls.Sigclass.bits with
      | Ok st' -> Some st'
      | Error `Contradiction -> None
    in
    let h = (branch State.Pos, branch State.Neg) in
    sc.hyps.(c) <- Some h;
    h

(* The memo row of a (hypothetical) state: one status byte per class. *)
let row_of memo classes st' =
  find_or_add memo.rows (st'.State.s_bits, st'.State.neg_bits) (fun () ->
      Bytes.make (Array.length classes) unset)

let rec refines_any m = function
  | [] -> false
  | u :: us -> Pairs.refines m u || refines_any m us

(* [State.classify st' sig_i], but reusing the shared meets when [st']
   kept the scorer's canonical predicate (every negative branch does); a
   state that moved tests [s' ∧ sig_i ⊑ u] without building the meet. *)
let classify_uncached sc st' i =
  let memo = sc.memo in
  memo.classified <- memo.classified + 1;
  let g = sc.classes.(i).Sigclass.bits in
  if st'.State.s != sc.st.State.s then
    match State.classify_bits st' g with
    | State.Certain_pos -> State.Certain_pos
    | v ->
      memo.meets <- memo.meets + 1;
      v
  else if Pairs.refines st'.State.s_bits g then State.Certain_pos
  else if refines_any (meet_s sc i) st'.State.neg_bits then State.Certain_neg
  else State.Informative

(* A memoised slot is decoded on a hit; a miss computes the status and
   stores its code.  (Written out twice rather than through a closure:
   these are the hottest reads of a pick and must not allocate.) *)
let classify_row sc st' row i =
  let c = Bytes.get row i in
  if c <> unset then begin
    sc.memo.hits <- sc.memo.hits + 1;
    decode c
  end
  else begin
    sc.memo.misses <- sc.memo.misses + 1;
    let v = classify_uncached sc st' i in
    Bytes.set row i (encode v);
    v
  end

(* The informative set is read through the memo row of [st], so an inner
   lookahead sweep reuses the classifications its outer scorer already
   made in that state. *)
let of_state ?(memo = new_memo ()) st classes =
  let row = row_of memo classes st in
  let status i =
    let c = Bytes.get row i in
    if c <> unset then begin
      memo.hits <- memo.hits + 1;
      decode c
    end
    else begin
      memo.misses <- memo.misses + 1;
      memo.classified <- memo.classified + 1;
      let v = State.classify_bits st classes.(i).Sigclass.bits in
      Bytes.set row i (encode v);
      v
    end
  in
  create ~memo st classes (informative_gen classes status)

(* Informative classes decided in [st'], each weighted by [weight]: a
   loop, not a fold, since this is the inner loop of every lookahead. *)
let decided_weighted sc st' weight =
  let row = row_of sc.memo sc.classes st' in
  let acc = ref 0 in
  for j = 0 to Array.length sc.informative - 1 do
    let i = sc.informative.(j) in
    if classify_row sc st' row i <> State.Informative then
      acc := !acc + weight sc i
  done;
  !acc

let decided_under sc st' = decided_weighted sc st' (fun _ _ -> 1)

let decided_counts sc c =
  let st_pos, st_neg = hypothetical sc c in
  let count = function
    | None -> Array.length sc.informative
    | Some st' -> decided_under sc st'
  in
  (count st_pos, count st_neg)

let decided_cards sc c =
  let st_pos, st_neg = hypothetical sc c in
  let total =
    Array.fold_left
      (fun acc i -> acc + sc.classes.(i).Sigclass.card)
      0 sc.informative
  in
  let count = function
    | None -> total
    | Some st' ->
      decided_weighted sc st' (fun sc i -> sc.classes.(i).Sigclass.card)
  in
  (count st_pos, count st_neg)

let vs_split sc c =
  let st_pos, st_neg = hypothetical sc c in
  let vs = function None -> 0.0 | Some st' -> Version_space.count st' in
  (vs st_pos, vs st_neg)

(* Strict-improvement scan in informative order, so ties resolve to
   the lowest class index. *)
let best sc score =
  let inf = sc.informative in
  let k = Array.length inf in
  if k = 0 then None
  else begin
    let bi = ref inf.(0) and bs = ref (score sc inf.(0)) in
    for j = 1 to k - 1 do
      let s = score sc inf.(j) in
      if s > !bs then begin
        bi := inf.(j);
        bs := s
      end
    done;
    Some !bi
  end
