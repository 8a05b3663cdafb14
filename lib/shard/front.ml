(* Wire plumbing for the sharded tier: the connection pools a router
   forwards through, the [Router.upstream] built from shard/standby
   addresses, the standby serve node, and the replication target a
   primary streams through. *)

module Wire = Jim_server.Wire
module P = Jim_api.Protocol

(* ------------------------------------------------------------------ *)
(* Connection pool                                                     *)

type pool = {
  addr : Wire.address;
  retries : int;
  plock : Mutex.t;
  mutable idle : Wire.client list;
  mutable closed : bool;
}

let max_idle = 16

let pool ?(retries = 5) addr =
  { addr; retries; plock = Mutex.create (); idle = []; closed = false }

let pool_take p =
  Mutex.lock p.plock;
  let reused =
    match p.idle with
    | c :: rest ->
      p.idle <- rest;
      Some c
    | [] -> None
  in
  Mutex.unlock p.plock;
  match reused with
  | Some c -> Ok c
  | None -> Wire.connect ~retries:p.retries ~framing:Wire.Binary p.addr

let pool_give p c =
  Mutex.lock p.plock;
  let keep = (not p.closed) && List.length p.idle < max_idle in
  if keep then p.idle <- c :: p.idle;
  Mutex.unlock p.plock;
  if not keep then Wire.close c

(* A pipelined burst on one pooled connection: every request leaves
   before the first reply is read, so the shard takes the whole burst
   in one or two of its turns.  The replies read before a transport
   error stand; that request and every later one get the error, and
   the connection is closed instead of returned — the next call dials
   fresh — so one dead socket never poisons the pool. *)
let pool_calls p payloads =
  match pool_take p with
  | Error e -> Array.map (fun _ -> Error e) payloads
  | Ok c ->
    let broken = ref None in
    let step f x =
      match !broken with
      | Some e -> Error e
      | None ->
        let r = f x in
        Result.iter_error (fun e -> broken := Some e) r;
        r
    in
    Array.iter
      (fun payload -> ignore (step (Wire.send_line ~flush:false c) payload))
      payloads;
    let replies = Array.map (fun _ -> step Wire.recv_line c) payloads in
    if !broken = None then pool_give p c else Wire.close c;
    replies

let pool_call p payload = (pool_calls p [| payload |]).(0)

let pool_close p =
  Mutex.lock p.plock;
  let idle = p.idle in
  p.idle <- [];
  p.closed <- true;
  Mutex.unlock p.plock;
  List.iter Wire.close idle

(* ------------------------------------------------------------------ *)
(* Router upstreams over the wire                                      *)

(* Promotion over the wire: dial the standby fresh, tell it to promote
   (it recovers its accumulated directory and starts serving), and
   hand the router a pooled batch path to it. *)
let promote_standby ~name addr () =
  match Wire.connect ~retries:5 addr with
  | Error e -> Error (Printf.sprintf "standby %s: %s" name e)
  | Ok c ->
    let result =
      match Wire.call c P.Promote with
      | Ok (P.Promoted _) -> Ok ()
      | Ok (P.Failed e) ->
        Error (Printf.sprintf "standby %s refused: %s" name (P.error_to_string e))
      | Ok _ -> Error (Printf.sprintf "standby %s: unexpected promote reply" name)
      | Error e -> Error (Printf.sprintf "standby %s: %s" name e)
    in
    Wire.close c;
    (match result with
    | Ok () -> Ok (pool_calls (pool addr))
    | Error _ as e -> e)

let wire_upstream ~name ~primary ?standby () =
  let primary_pool = pool primary in
  let promote =
    Option.map
      (fun addr () ->
        let r = promote_standby ~name addr () in
        if Result.is_ok r then pool_close primary_pool;
        r)
      standby
  in
  Router.batch_upstream ~name ?promote (pool_calls primary_pool)

(* ------------------------------------------------------------------ *)
(* The standby serve node: a {!Node} around a caller-owned standby     *)

type standby_node = Node.t

let standby_node stb =
  Node.of_standby (Node.config (Node.Standby { data_dir = Standby.dir stb })) stb

let handle_line = Node.handle_line
let sweep = Node.sweep

(* ------------------------------------------------------------------ *)
(* Wire replication target                                             *)

(* The sending half a primary uses against a remote standby: the same
   [Repl.target] closures, carried by protocol messages over one pooled
   connection.  Group-commit batches travel as a single [Repl_batch]
   message — one round-trip per batch, acked at the batch's high-water
   mark. *)
let wire_target ~name addr =
  let p = pool addr in
  let request req =
    match pool_call p (P.request_to_string req) with
    | Error e -> Error e
    | Ok resp -> (
      match P.response_of_string resp with
      | Ok (P.Repl_ok { gen; records }) -> Ok (gen, records)
      | Ok (P.Failed e) -> Error (P.error_to_string e)
      | Ok _ -> Error "unexpected replication reply"
      | Error e -> Error ("unparseable replication reply: " ^ P.error_to_string e))
  in
  {
    Repl.describe = Printf.sprintf "standby %s at %s" name (Wire.address_to_string addr);
    install =
      (fun ~gen ~snapshot ->
        Result.map (fun _ -> ()) (request (P.Repl_install { gen; snapshot })));
    rotate =
      (fun ~gen -> Result.map (fun _ -> ()) (request (P.Repl_rotate { gen })));
    append_batch = (fun records -> request (P.Repl_batch { records }));
    close = (fun () -> pool_close p);
  }
