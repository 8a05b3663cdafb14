(* Process-wide perf counters for the scoring engine.  Atomic so two
   threads recording at once lose nothing; each engine counts its own
   work in a snapshot and adds every batch here once (see
   {!Session.pick}). *)

type snapshot = {
  meets : int;
  classify_calls : int;
  cache_hits : int;
  cache_misses : int;
  picks : int;
  pick_time_ns : int;
  last_pick_ns : int;
}

let meets = Atomic.make 0
let classify_calls = Atomic.make 0
let cache_hits = Atomic.make 0
let cache_misses = Atomic.make 0
let picks = Atomic.make 0
let pick_time_ns = Atomic.make 0
let last_pick_ns = Atomic.make 0

let reset () =
  Atomic.set meets 0;
  Atomic.set classify_calls 0;
  Atomic.set cache_hits 0;
  Atomic.set cache_misses 0;
  Atomic.set picks 0;
  Atomic.set pick_time_ns 0;
  Atomic.set last_pick_ns 0

let add_to counter n = if n <> 0 then ignore (Atomic.fetch_and_add counter n)

let record d =
  add_to meets d.meets;
  add_to classify_calls d.classify_calls;
  add_to cache_hits d.cache_hits;
  add_to cache_misses d.cache_misses;
  if d.picks > 0 then begin
    add_to picks d.picks;
    add_to pick_time_ns d.pick_time_ns;
    Atomic.set last_pick_ns d.last_pick_ns
  end

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let snapshot () =
  {
    meets = Atomic.get meets;
    classify_calls = Atomic.get classify_calls;
    cache_hits = Atomic.get cache_hits;
    cache_misses = Atomic.get cache_misses;
    picks = Atomic.get picks;
    pick_time_ns = Atomic.get pick_time_ns;
    last_pick_ns = Atomic.get last_pick_ns;
  }

let zero =
  {
    meets = 0;
    classify_calls = 0;
    cache_hits = 0;
    cache_misses = 0;
    picks = 0;
    pick_time_ns = 0;
    last_pick_ns = 0;
  }

let diff later earlier =
  {
    meets = later.meets - earlier.meets;
    classify_calls = later.classify_calls - earlier.classify_calls;
    cache_hits = later.cache_hits - earlier.cache_hits;
    cache_misses = later.cache_misses - earlier.cache_misses;
    picks = later.picks - earlier.picks;
    pick_time_ns = later.pick_time_ns - earlier.pick_time_ns;
    last_pick_ns = later.last_pick_ns;
  }

let add a b =
  {
    meets = a.meets + b.meets;
    classify_calls = a.classify_calls + b.classify_calls;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    picks = a.picks + b.picks;
    pick_time_ns = a.pick_time_ns + b.pick_time_ns;
    last_pick_ns = (if b.picks > 0 then b.last_pick_ns else a.last_pick_ns);
  }

let hit_rate s =
  let total = s.cache_hits + s.cache_misses in
  if total = 0 then 0.0 else float_of_int s.cache_hits /. float_of_int total

let avg_pick_ns s =
  if s.picks = 0 then 0.0
  else float_of_int s.pick_time_ns /. float_of_int s.picks

let to_string s =
  Printf.sprintf
    "picks %d (avg %.2f ms) | meets %d | classify %d | cache %d/%d (%.0f%% hit)"
    s.picks
    (avg_pick_ns s /. 1e6)
    s.meets s.classify_calls s.cache_hits
    (s.cache_hits + s.cache_misses)
    (100.0 *. hit_rate s)

let to_json s =
  Printf.sprintf
    "{\"picks\":%d,\"pick_time_ns\":%d,\"avg_pick_ms\":%.6f,\"meets\":%d,\
     \"classify_calls\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\
     \"cache_hit_rate\":%.6f}"
    s.picks s.pick_time_ns
    (avg_pick_ns s /. 1e6)
    s.meets s.classify_calls s.cache_hits s.cache_misses (hit_rate s)
