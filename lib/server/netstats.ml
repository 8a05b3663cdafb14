(* Process-wide wire-layer counters, the network-side sibling of
   Jim_core.Metrics: every accept, close, failure, malformed request and
   byte through the serve loop.  Atomic, so the event loops of several
   servers in one process update them without coordination. *)

let accepted = Atomic.make 0
let closed = Atomic.make 0
let failed = Atomic.make 0
let malformed = Atomic.make 0
let bytes_in = Atomic.make 0
let bytes_out = Atomic.make 0
let binary_conns = Atomic.make 0
let requests = Atomic.make 0
let writes_coalesced = Atomic.make 0
let flushes = Atomic.make 0
let pipelined_depth_max = Atomic.make 0

let record_accept () = Atomic.incr accepted
let record_close () = Atomic.incr closed
let record_failure () = Atomic.incr failed
let record_malformed () = Atomic.incr malformed
let record_read n = ignore (Atomic.fetch_and_add bytes_in n)
let record_write n = ignore (Atomic.fetch_and_add bytes_out n)
let record_binary () = Atomic.incr binary_conns
let record_request () = Atomic.incr requests
let record_flush () = Atomic.incr flushes
let record_coalesced n = if n > 0 then ignore (Atomic.fetch_and_add writes_coalesced n)

let rec record_depth d =
  let cur = Atomic.get pipelined_depth_max in
  if d > cur && not (Atomic.compare_and_set pipelined_depth_max cur d) then
    record_depth d

type snapshot = {
  accepted : int;
  active : int;
  closed : int;
  failed : int;
  malformed : int;
  requests : int;
  binary_conns : int;
  bytes_in : int;
  bytes_out : int;
  writes_coalesced : int;
  flushes : int;
  pipelined_depth_max : int;
}

let snapshot () =
  let accepted = Atomic.get accepted and closed = Atomic.get closed in
  {
    accepted;
    closed;
    active = max 0 (accepted - closed);
    failed = Atomic.get failed;
    malformed = Atomic.get malformed;
    requests = Atomic.get requests;
    binary_conns = Atomic.get binary_conns;
    bytes_in = Atomic.get bytes_in;
    bytes_out = Atomic.get bytes_out;
    writes_coalesced = Atomic.get writes_coalesced;
    flushes = Atomic.get flushes;
    pipelined_depth_max = Atomic.get pipelined_depth_max;
  }

let reset () =
  List.iter
    (fun c -> Atomic.set c 0)
    [ accepted; closed; failed; malformed; bytes_in; bytes_out;
      binary_conns; requests; writes_coalesced; flushes;
      pipelined_depth_max ]

let to_string s =
  Printf.sprintf
    "conns %d accepted / %d active / %d failed · %d requests (%d binary \
     conns, %d malformed) · %d B in / %d B out · %d flushes (%d coalesced, \
     depth %d)"
    s.accepted s.active s.failed s.requests s.binary_conns s.malformed
    s.bytes_in s.bytes_out s.flushes s.writes_coalesced s.pipelined_depth_max
