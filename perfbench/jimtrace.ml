(* The benchmark's traced serving node.  It assembles the same nodes as
   [jim serve], [jim standby] and [jim router] (default settings) from the
   libraries' public functions, and records a span around every call into
   a layer: request decode, [Service.handle], the persist hook
   ([Store.record], [Repl.send]), response encode, [Router.handle_line]
   and each upstream call.  Spans stay in memory until a [#dump] control
   line writes them to the [--spans] file; a [#stats] control line
   answers the layer counters gathered since the previous [#stats].

   Usage:
     jimtrace.exe serve   --socket P --data-dir D --spans F [--replicate-to unix:P]
     jimtrace.exe standby --socket P --data-dir D --spans F
     jimtrace.exe router  --socket P --data-dir D --spans F
                          --shard NAME=unix:P [--standby NAME=unix:P] *)

module P = Jim_api.Protocol
module Json = Jim_api.Json
module Wire = Jim_server.Wire
module Service = Jim_server.Service
module Netstats = Jim_server.Netstats
module Store = Jim_store.Store
module Io = Jim_store.Io
module Repl = Jim_shard.Repl
module Router = Jim_shard.Router
module Front = Jim_shard.Front
module Standby = Jim_shard.Standby
module M = Measure

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

let lock = Mutex.create ()
let buf = Buffer.create (1 lsl 20)
let next_id = Atomic.make 0

(* Innermost open span of each thread: the parent of the next one. *)
let current : (int, int) Hashtbl.t = Hashtbl.create 64

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let open_span () =
  let id = Atomic.fetch_and_add next_id 1 in
  let tid = Thread.id (Thread.self ()) in
  let parent =
    with_lock (fun () ->
        let p = Option.value (Hashtbl.find_opt current tid) ~default:(-1) in
        Hashtbl.replace current tid id;
        p)
  in
  (id, parent, M.now_ns ())

let close_span (_, parent, _) =
  let stop = M.now_ns () in
  let tid = Thread.id (Thread.self ()) in
  with_lock (fun () ->
      if parent < 0 then Hashtbl.remove current tid
      else Hashtbl.replace current tid parent);
  stop

let emit (id, parent, start_ns) end_ns name key =
  let line = M.span_to_line { M.id; parent; name; start_ns; end_ns; key } in
  with_lock (fun () ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')

(* [span name_of key_of f]: run [f] inside a span whose name and request
   key are computed from the result after the span has closed. *)
let span_with name_of key_of f =
  let s = open_span () in
  match f () with
  | r ->
    let stop = close_span s in
    emit s stop (name_of r) (key_of r);
    r
  | exception e ->
    emit s (close_span s) "error" "";
    raise e

let span name f = span_with (fun _ -> name) (fun _ -> "") f

(* Request keys "<session>.<n>": the n-th request of a session, counted
   here exactly as the client counts them (a session has one request in
   flight at a time), so client and server spans of one request join. *)
let key_lock = Mutex.create ()
let per_session : (int, int) Hashtbl.t = Hashtbl.create 1024

let key_for sid =
  Mutex.lock key_lock;
  let n = Option.value (Hashtbl.find_opt per_session sid) ~default:0 in
  Hashtbl.replace per_session sid (n + 1);
  Mutex.unlock key_lock;
  Printf.sprintf "%d.%d" sid n

let request_key req resp =
  match (req : P.request) with
  | P.Start_session _ | P.Start_pinned _ -> (
    match resp with P.Started { session; _ } -> key_for session | _ -> "")
  | P.Get_question { session }
  | P.Top_questions { session; _ }
  | P.Answer { session; _ }
  | P.Undo { session }
  | P.Explain { session; _ }
  | P.Result { session }
  | P.Stats { session }
  | P.Get_transcript { session }
  | P.End_session { session } -> key_for session
  | _ -> ""

let kind = function
  | Some (P.Get_question _) -> "read"
  | Some (P.Answer _ | P.Undo _) -> "write"
  | _ -> "other"

(* ------------------------------------------------------------------ *)
(* Layer counters                                                       *)

let counter () = Atomic.make 0
let add c n = ignore (Atomic.fetch_and_add c n)

let journal_writes = counter ()
let journal_fsyncs = counter ()
let journal_bytes = counter ()
let since_fsync = counter ()
let max_batch = counter ()
let repl_batches = counter ()
let repl_records = counter ()
let lag_sum = counter ()
let lag_samples = counter ()

let rec raise_max c v =
  let cur = Atomic.get c in
  if v > cur && not (Atomic.compare_and_set c cur v) then raise_max c v

(* The store's I/O seam with journal appends and fsyncs counted:
   records per fsync is what group commit achieves. *)
let counting_io =
  let journal path = String.starts_with ~prefix:"journal." (Filename.basename path) in
  let wrap path (f : Io.file) =
    if not (journal path) then f
    else
      {
        f with
        Io.write =
          (fun b off len ->
            let n = f.Io.write b off len in
            add journal_writes 1;
            add journal_bytes n;
            add since_fsync 1;
            n);
        fsync =
          (fun () ->
            f.Io.fsync ();
            add journal_fsyncs 1;
            raise_max max_batch (Atomic.exchange since_fsync 0));
      }
  in
  {
    Io.real with
    Io.create = (fun p -> wrap p (Io.real.Io.create p));
    open_append =
      (fun p -> Result.map (fun (f, n) -> (wrap p f, n)) (Io.real.Io.open_append p));
  }

let last_gc = ref (Gc.quick_stat ())

(* Counters since the previous [#stats]; each call starts a new window. *)
let stats () =
  let g = Gc.quick_stat () in
  let g0 = !last_gc in
  last_gc := g;
  let n = Netstats.snapshot () in
  Netstats.reset ();
  let take c = float_of_int (Atomic.exchange c 0) in
  let fields =
    [
      ("requests", float_of_int n.Netstats.requests);
      ("flushes", float_of_int n.Netstats.flushes);
      ("coalesced", float_of_int n.Netstats.writes_coalesced);
      ("depth_max", float_of_int n.Netstats.pipelined_depth_max);
      ("bytes", float_of_int (n.Netstats.bytes_in + n.Netstats.bytes_out));
      ("minor_words", g.Gc.minor_words -. g0.Gc.minor_words);
      ( "major_collections",
        float_of_int (g.Gc.major_collections - g0.Gc.major_collections) );
      ("journal_writes", take journal_writes);
      ("journal_fsyncs", take journal_fsyncs);
      ("journal_bytes", take journal_bytes);
      ("max_batch", take max_batch);
      ("repl_batches", take repl_batches);
      ("repl_records", take repl_records);
      ("lag_sum", take lag_sum);
      ("lag_samples", take lag_samples);
    ]
  in
  Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) fields))

let dump path =
  let text =
    with_lock (fun () ->
        let t = Buffer.contents buf in
        Buffer.clear buf;
        t)
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Json.to_string (Json.Obj [ ("bytes", Json.Int (String.length text)) ])

(* Control lines first, everything else to the node's handler. *)
let handler ~spans f payload =
  match payload with
  | "#stats" -> (stats (), true)
  | "#dump" -> (dump spans, true)
  | _ -> f payload

(* ------------------------------------------------------------------ *)
(* Nodes                                                                *)

let or_die what = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "jimtrace %s: %s\n%!" what e;
    exit 1

let address spec = or_die "address" (Wire.address_of_string spec)

let serve_node ~socket ~data ~spans ~replicate_to =
  let st, recovered = or_die "store" (Store.open_dir ~io:counting_io data) in
  let repl =
    Option.map
      (fun spec ->
        let t = Front.wire_target ~name:"replica" (address spec) in
        let t =
          {
            t with
            Repl.append_batch =
              (fun records ->
                add repl_batches 1;
                add repl_records (List.length records);
                t.Repl.append_batch records);
          }
        in
        or_die "replication" (Repl.attach st t))
      replicate_to
  in
  let persist ev =
    span "persist" (fun () ->
        span "store.record" (fun () -> Store.record st ev);
        Option.iter
          (fun r ->
            add lag_sum (fst (Repl.lag r));
            add lag_samples 1;
            span "repl.send" (fun () -> Repl.send r ev))
          repl)
  in
  let catalog = Jim_catalog.Catalog.create () in
  let service = Service.create ~catalog ~persist () in
  ignore (or_die "recovery" (Service.restore service recovered));
  let handle payload =
    let _, _, line, ok =
      span_with
        (fun _ -> "handler")
        (fun (req, resp, _, _) ->
          match req with Some q -> request_key q resp | None -> "")
        (fun () ->
          let decoded =
            span_with
              (fun r -> "decode." ^ kind (Result.to_option r))
              (fun _ -> "")
              (fun () -> P.request_of_string payload)
          in
          match decoded with
          | Error e ->
            let resp = P.Failed e in
            (None, resp, span "encode.other" (fun () -> P.response_to_string resp), false)
          | Ok req ->
            let resp =
              span "service" (fun () ->
                  try Service.handle service req
                  with exn ->
                    P.Failed
                      (P.Bad_request ("internal error: " ^ Printexc.to_string exn)))
            in
            ( Some req,
              resp,
              span ("encode." ^ kind (Some req)) (fun () -> P.response_to_string resp),
              true ))
    in
    (line, ok)
  in
  let server =
    Wire.serve_handler
      ~sweep:(fun () -> Service.sweep service)
      (handler ~spans handle) (Wire.Unix_path socket)
  in
  Printf.printf "jimtrace serve: listening on %s\n%!"
    (Wire.address_to_string (Wire.bound_address server));
  Wire.wait server;
  Option.iter Repl.close repl;
  Store.close st

let standby_node ~socket ~data ~spans =
  let stb = Standby.create ~dir:data () in
  let node = Front.standby_node stb in
  let server =
    Wire.serve_handler
      ~sweep:(fun () -> Front.sweep node)
      (handler ~spans (Front.handle_line node))
      (Wire.Unix_path socket)
  in
  Printf.printf "jimtrace standby: listening on %s\n%!"
    (Wire.address_to_string (Wire.bound_address server));
  Wire.wait server;
  Standby.close stb

let router_node ~socket ~data ~spans ~shards ~standbys =
  let upstreams =
    List.map
      (fun (name, primary) ->
        let standby = Option.map address (List.assoc_opt name standbys) in
        let u = Front.wire_upstream ~name ~primary:(address primary) ?standby () in
        let call = u.Router.call in
        u.Router.call <- (fun line -> span "upstream" (fun () -> call line));
        u)
      shards
  in
  let router = or_die "router" (Router.create ~dir:data ~shards:upstreams ()) in
  let handle payload =
    span_with
      (fun _ -> "router")
      (fun (line, _) ->
        match (P.request_of_string payload, P.response_of_string line) with
        | Ok req, Ok resp -> request_key req resp
        | _ -> "")
      (fun () -> Router.handle_line router payload)
  in
  let server = Wire.serve_handler (handler ~spans handle) (Wire.Unix_path socket) in
  Printf.printf "jimtrace router: listening on %s\n%!"
    (Wire.address_to_string (Wire.bound_address server));
  Wire.wait server;
  Router.close router

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let role, flags =
    match args with r :: rest -> (r, rest) | [] -> ("", [])
  in
  let rec pairs = function
    | k :: v :: rest -> (k, v) :: pairs rest
    | [] -> []
    | [ k ] -> or_die "arguments" (Error ("missing value for " ^ k))
  in
  let kv = pairs flags in
  let one k = or_die "arguments" (Option.to_result ~none:("missing " ^ k) (List.assoc_opt k kv)) in
  let named k =
    List.filter_map
      (fun (k', v) ->
        if k' <> k then None
        else
          match String.index_opt v '=' with
          | Some i -> Some (String.sub v 0 i, String.sub v (i + 1) (String.length v - i - 1))
          | None -> or_die "arguments" (Error (k ^ " wants NAME=ADDR")))
      kv
  in
  let socket = one "--socket" and data = one "--data-dir" and spans = one "--spans" in
  match role with
  | "serve" ->
    serve_node ~socket ~data ~spans ~replicate_to:(List.assoc_opt "--replicate-to" kv)
  | "standby" -> standby_node ~socket ~data ~spans
  | "router" ->
    router_node ~socket ~data ~spans ~shards:(named "--shard") ~standbys:(named "--standby")
  | r -> or_die "arguments" (Error ("unknown role " ^ r))
