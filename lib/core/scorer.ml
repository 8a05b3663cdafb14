module Pairs = Jim_partition.Pairs

(* The round-scoped scoring engine every strategy routes through.

   A lookahead strategy scores each informative class c by re-classifying
   every informative class i under the two hypothetical states "c labelled
   +" and "c labelled -" — O(k^2) classifications per question, each one a
   lattice meet.  Classes and states carry their partitions as pair
   words ([Jim_partition.Pairs]), so a meet is a [land] per word and a
   refinement test a [land lnot].  Three observations make this cheap:

   - [meet s sig_i] only depends on the round's state, not on the
     candidate: compute it once per round and share it across candidates
     (every negative-branch classification, and the certain-negative test
     of the positive branch of candidates whose meet leaves [s]
     unchanged, reuses it);
   - hypothetical states repeat — across candidates (distinct signatures
     with equal clipped meets), across the two count/cardinality passes,
     and across rounds (the answered branch becomes the next round's base
     state) — so classifications are memoised in a [cache] keyed by
     the packed [State.key] x class index that outlives the round;
   - candidate scoring is effect-free, so it can fan out across domains
     ([JIM_DOMAINS] / [--domains]); the merge is a deterministic
     lowest-index-wins argmax, making parallel and sequential picks
     bit-identical. *)

(* The cross-round memo.  Since the instance catalog (lib/catalog) one
   cache can be shared by every session on the same instance, so rows are
   interned in a striped structure:

   - a status row ([Bytes.t], one byte per class, keyed by [State.key])
     and a meet row ([Pairs.t array], one slot per class, keyed by
     [State.canonical_key]) hold values that are pure functions of their
     key, so slot reads and writes need no synchronisation.  A status
     byte is [unset] until computed, then one code per status; a meet
     slot is the physical sentinel [no_meet] until computed.  A slot
     write is a single store (never a read-modify-write of shared bits),
     so a racing reader either sees the sentinel (and recomputes the
     identical value) or the value;
   - interning the row itself is the only write that touches shared
     bookkeeping, so it takes a per-stripe mutex.  Lookups try a dirty
     [Hashtbl.find_opt] first; a miss falls into the locked find-or-add,
     which re-checks — a reader racing a rehash or a reset can only
     miss, or find a row that is still correct;
   - the cache has a byte budget, counted per row as its bytes plus its
     key plus [row_overhead] (headers and the table's bucket).  Each of
     the 16 stripes owns 1/16 of it; an insert that would overflow its
     stripe's share first resets that stripe and counts the dropped rows
     as evictions.  Rows are pure functions of their keys, so an
     eviction only costs recomputation: counts change, picks never do.

   All shared-cache traffic comes from sys-threads of one domain (the
   scoring domains spawned by [best] use private clones), so the dirty
   read is over memory the runtime lock already keeps coherent. *)

type stripe = {
  lock : Mutex.t;
  rows : (string, Bytes.t) Hashtbl.t;
  meet_rows : (string, Pairs.t array) Hashtbl.t;
  mutable bytes : int;
  mutable evicted : int;
}

type cache = { stripes : stripe array; share : int }

let default_budget_bytes = 8 * 1024 * 1024

(* Per row: the table's bucket cell (4 words), its slot in the bucket
   array, and the row's and key's headers, rounded up. *)
let row_overhead = 64

let new_cache ?(budget_bytes = default_budget_bytes) () : cache =
  let stripe () =
    {
      lock = Mutex.create ();
      rows = Hashtbl.create 16;
      meet_rows = Hashtbl.create 16;
      bytes = 0;
      evicted = 0;
    }
  in
  let stripes = Array.init 16 (fun _ -> stripe ()) in
  { stripes; share = max 1 (budget_bytes / Array.length stripes) }

type memo_stats = { rows : int; bytes : int; evictions : int }

let memo_stats cache =
  Array.fold_left
    (fun (acc : memo_stats) (s : stripe) ->
      {
        rows = acc.rows + Hashtbl.length s.rows + Hashtbl.length s.meet_rows;
        bytes = acc.bytes + s.bytes;
        evictions = acc.evictions + s.evicted;
      })
    { rows = 0; bytes = 0; evictions = 0 }
    cache.stripes

(* [table] picks which of the stripe's two tables the row lives in;
   [size] is the row's own bytes. *)
let find_or_add cache table key ~size fresh =
  let s =
    cache.stripes.(Hashtbl.hash key land (Array.length cache.stripes - 1))
  in
  match Hashtbl.find_opt (table s) key with
  | Some v -> v
  | None ->
    Mutex.lock s.lock;
    let v =
      match Hashtbl.find_opt (table s) key with
      | Some v -> v
      | None ->
        let cost = size + String.length key + row_overhead in
        if s.bytes > 0 && s.bytes + cost > cache.share then begin
          s.evicted <-
            s.evicted + Hashtbl.length s.rows + Hashtbl.length s.meet_rows;
          Hashtbl.reset s.rows;
          Hashtbl.reset s.meet_rows;
          s.bytes <- 0
        end;
        let v = fresh () in
        Hashtbl.add (table s) key v;
        s.bytes <- s.bytes + cost;
        v
    in
    Mutex.unlock s.lock;
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
  cache : cache;
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

let informative_of st classes =
  informative_gen classes (fun i ->
      Metrics.record_classify ();
      State.classify_bits st classes.(i).Sigclass.bits)

(* The per-round meet table only depends on the round's canonical
   predicate [s], so with a shared cache it is interned under
   [State.canonical_key]: every session on the instance that reaches a
   state with the same [s] (most obviously round 0) reuses the same row.
   Its size is counted as if every slot were filled: the array plus one
   [n]-element representative array per class, which bounds a slot's
   pair words while [n] is below about 128. *)
let meets_row cache classes st =
  let k = Array.length classes in
  find_or_add cache
    (fun s -> s.meet_rows)
    (State.canonical_key st)
    ~size:(k * (st.State.n + 2) * (Sys.word_size / 8))
    (fun () -> Array.make k no_meet)

let create ?cache st classes informative =
  let cache, meets =
    match cache with
    | None -> (new_cache (), Array.make (Array.length classes) no_meet)
    | Some cache -> (cache, meets_row cache classes st)
  in
  {
    st;
    classes;
    informative;
    meets;
    hyps = Array.make (Array.length classes) None;
    cache;
  }

let state sc = sc.st
let informative sc = sc.informative

let meet_s sc i =
  let m = sc.meets.(i) in
  if m != no_meet then m
  else begin
    Metrics.record_meet ();
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
      Metrics.record_meet ();
      match State.add_bits sc.st label cls.Sigclass.sg cls.Sigclass.bits with
      | Ok st' -> Some st'
      | Error `Contradiction -> None
    in
    let h = (branch State.Pos, branch State.Neg) in
    sc.hyps.(c) <- Some h;
    h

(* The memo row of a (hypothetical) state: one status byte per class. *)
let row_of cache classes st' =
  let k = Array.length classes in
  find_or_add cache
    (fun s -> s.rows)
    (State.key st') ~size:k
    (fun () -> Bytes.make k unset)

let rec refines_any m = function
  | [] -> false
  | u :: us -> Pairs.refines m u || refines_any m us

(* [State.classify st' sig_i], but reusing the shared per-round meets when
   [st'] kept the round's canonical predicate (every negative branch
   does); a state that moved tests [s' ∧ sig_i ⊑ u] without building the
   meet. *)
let classify_uncached sc st' i =
  Metrics.record_classify ();
  let g = sc.classes.(i).Sigclass.bits in
  if st'.State.s != sc.st.State.s then
    match State.classify_bits st' g with
    | State.Certain_pos -> State.Certain_pos
    | v ->
      Metrics.record_meet ();
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
    Metrics.record_hit ();
    decode c
  end
  else begin
    Metrics.record_miss ();
    let v = classify_uncached sc st' i in
    Bytes.set row i (encode v);
    v
  end

let class_status cache classes st i =
  let row = row_of cache classes st in
  let c = Bytes.get row i in
  if c <> unset then begin
    Metrics.record_hit ();
    decode c
  end
  else begin
    Metrics.record_miss ();
    Metrics.record_classify ();
    let v = State.classify_bits st classes.(i).Sigclass.bits in
    Bytes.set row i (encode v);
    v
  end

(* When a shared cache is supplied the informative set is computed
   through it, so inner lookahead sweeps reuse the classifications the
   outer round already paid for. *)
let of_state ?cache st classes =
  match cache with
  | None -> create st classes (informative_of st classes)
  | Some cache ->
    create ~cache st classes
      (informative_gen classes (fun i -> class_status cache classes st i))

(* Informative classes decided in [st'], each weighted by [weight]: a
   loop, not a fold, since this is the inner loop of every lookahead. *)
let decided_weighted sc st' weight =
  let row = row_of sc.cache sc.classes st' in
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

(* ------------------------------------------------------------------ *)
(* Parallel candidate scoring.                                         *)

let domains_override = ref None

let domains () =
  match !domains_override with
  | Some d -> d
  | None ->
    let d =
      match Sys.getenv_opt "JIM_DOMAINS" with
      | Some v -> ( match int_of_string_opt (String.trim v) with
        | Some d when d >= 1 -> d
        | _ -> 1)
      | None -> 1
    in
    domains_override := Some d;
    d

let set_domains d = domains_override := Some (max 1 d)

(* Strict-improvement fold over [inf.(lo..hi-1)]; scanning in increasing
   index order makes ties resolve to the lowest index. *)
let chunk_argmax sc score inf lo hi =
  if hi <= lo then None
  else begin
    let bi = ref inf.(lo) and bs = ref (score sc inf.(lo)) in
    for j = lo + 1 to hi - 1 do
      let s = score sc inf.(j) in
      if s > !bs then begin
        bi := inf.(j);
        bs := s
      end
    done;
    Some (!bi, !bs)
  end

let best sc score =
  let inf = sc.informative in
  let k = Array.length inf in
  if k = 0 then None
  else begin
    let nd = min (domains ()) k in
    if nd <= 1 then Option.map fst (chunk_argmax sc score inf 0 k)
    else begin
      (* Each domain scores a contiguous chunk with a private clone
         (fresh memo tables; the shared inputs are immutable), then the
         chunk winners merge in chunk order with the same strict-> rule:
         bit-identical to the sequential scan. *)
      let clone () = create sc.st sc.classes sc.informative in
      let bounds d = (d * k / nd, (d + 1) * k / nd) in
      let spawned =
        Array.init (nd - 1) (fun d ->
            let lo, hi = bounds (d + 1) in
            let sc' = clone () in
            Domain.spawn (fun () -> chunk_argmax sc' score inf lo hi))
      in
      let first =
        let lo, hi = bounds 0 in
        chunk_argmax sc score inf lo hi
      in
      let winner =
        Array.fold_left
          (fun acc r ->
            match (acc, r) with
            | None, r -> r
            | acc, None -> acc
            | Some (_, bs), Some (j, s) when s > bs -> Some (j, s)
            | acc, _ -> acc)
          first
          (Array.map Domain.join spawned)
      in
      Option.map fst winner
    end
  end
