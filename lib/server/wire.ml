module P = Jim_api.Protocol

type address = Tcp of string * int | Unix_path of string

let default_address = Unix_path "/tmp/jim.sock"

let address_to_string = function
  | Tcp (host, port) ->
    (* IPv6 literals go back out in the same bracket syntax
       [address_of_string] accepts, so the two stay inverses. *)
    if String.contains host ':' then Printf.sprintf "[%s]:%d" host port
    else Printf.sprintf "%s:%d" host port
  | Unix_path path -> "unix:" ^ path

let address_of_string s =
  let prefix = "unix:" in
  let plen = String.length prefix in
  let parse_port host port =
    match int_of_string_opt port with
    | Some p when p >= 0 && p < 65536 ->
      Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
    | _ -> Error (Printf.sprintf "bad port %S" port)
  in
  if String.length s >= plen && String.sub s 0 plen = prefix then
    Ok (Unix_path (String.sub s plen (String.length s - plen)))
  else if String.length s > 0 && s.[0] = '[' then
    (* [v6-literal]:PORT — the only unambiguous way to write an IPv6
       host, which contains colons itself. *)
    match String.index_opt s ']' with
    | None -> Error (Printf.sprintf "bad address %S (unclosed '[')" s)
    | Some i ->
      let host = String.sub s 1 (i - 1) in
      if i + 1 >= String.length s || s.[i + 1] <> ':' then
        Error (Printf.sprintf "bad address %S (want [HOST]:PORT)" s)
      else if host = "" then Error (Printf.sprintf "bad address %S (empty host)" s)
      else parse_port host (String.sub s (i + 2) (String.length s - i - 2))
  else
    match String.rindex_opt s ':' with
    | Some i when String.index s ':' <> i ->
      (* Splitting a bare multi-colon spec on the last colon would
         silently misread ::1:9090 as host "::1" — or worse; refuse. *)
      Error
        (Printf.sprintf
           "ambiguous address %S: IPv6 literals need brackets, as in [::1]:9090"
           s)
    | Some i ->
      parse_port (String.sub s 0 i)
        (String.sub s (i + 1) (String.length s - i - 1))
    | None -> Error (Printf.sprintf "bad address %S (want HOST:PORT or unix:PATH)" s)

let inet_addr host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
    | _ | (exception Not_found) ->
      failwith (Printf.sprintf "cannot resolve host %S" host))

let sockaddr_of = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Unix.ADDR_INET (inet_addr host, port)

let socket_for addr =
  (* The socket family must match the resolved address: an AF_INET socket
     cannot bind or connect ::1. *)
  match sockaddr_of addr with
  | Unix.ADDR_UNIX _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
  | sa -> Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0

let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ()  (* not a POSIX platform *)

(* ------------------------------------------------------------------ *)
(* Server: an epoll event loop                                         *)

(* One event-loop thread owns every socket — non-blocking reads and
   writes, per-connection buffers, framing negotiation — and runs every
   request itself.  Each loop turn reads what is ready, hands the parsed
   requests to the turn function in arrival order, and only then writes
   the replies: a node makes the turn's writes durable inside the turn
   function, so one fsync barrier covers the whole turn.  A thousand
   mostly-idle clients cost a thousand fds in one epoll set, and no
   request ever waits for a thread. *)

type framing = Line | Binary

(* A growable byte queue: the per-connection read and write buffer.
   Data lives in [buf.[off .. off+len-1]]; consumption slides [off],
   [reserve] compacts or grows.  Reused across every read and every
   response on the connection — no per-request allocation. *)
module Bq = struct
  type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

  let create n = { buf = Bytes.create (max 16 n); off = 0; len = 0 }
  let length t = t.len
  let is_empty t = t.len = 0

  let reserve t extra =
    if t.off + t.len + extra > Bytes.length t.buf then begin
      if t.off > 0 then begin
        Bytes.blit t.buf t.off t.buf 0 t.len;
        t.off <- 0
      end;
      if t.len + extra > Bytes.length t.buf then begin
        let cap = ref (max 64 (Bytes.length t.buf)) in
        while t.len + extra > !cap do
          cap := !cap * 2
        done;
        let nb = Bytes.create !cap in
        Bytes.blit t.buf 0 nb 0 t.len;
        t.buf <- nb
      end
    end

  let add_string t s =
    let n = String.length s in
    reserve t n;
    Bytes.blit_string s 0 t.buf (t.off + t.len) n;
    t.len <- t.len + n

  let add_frame t payload =
    let n = String.length payload in
    reserve t (Frame.header_size + n);
    let base = t.off + t.len in
    Frame.write_length t.buf ~off:base n;
    Bytes.blit_string payload 0 t.buf (base + Frame.header_size) n;
    t.len <- t.len + Frame.header_size + n

  let take_string t n =
    let s = Bytes.sub_string t.buf t.off n in
    t.off <- t.off + n;
    t.len <- t.len - n;
    if t.len = 0 then t.off <- 0;
    s

  let consume t n =
    t.off <- t.off + n;
    t.len <- t.len - n;
    if t.len = 0 then t.off <- 0

  let index_newline t =
    let rec go i =
      if i >= t.len then None
      else if Bytes.get t.buf (t.off + i) = '\n' then Some i
      else go (i + 1)
    in
    go 0
end

type config = { drain_timeout : float }

let default_config = { drain_timeout = 2.0 }
let backlog = 64

(* Requests one connection may put into a single turn; the rest wait
   for the next turn, behind the other connections.  Requests pipelined
   on one connection run one after another, in request order, and their
   replies leave in request order, so a pipelining client (see
   [send_line] / [recv_line]) saves round trips and shares barriers but
   never sees its requests reordered. *)
let max_pipeline = 8

type conn = {
  fd : Unix.file_descr;
  mutable mode : framing;
  rbuf : Bq.t;
  wbuf : Bq.t;
  pending : string Queue.t;  (* parsed payloads not yet run *)
  mutable ready : bool;  (* queued for a turn *)
  mutable replies : int;  (* replies buffered in the current turn *)
  mutable rd_closed : bool;  (* peer EOF seen; flush replies, then close *)
  mutable interest : bool * bool;  (* registered (readable, writable) *)
  mutable dead : bool;
}

type server = {
  turn : string array -> (string * bool) array;
      (* a turn's request payloads in, its replies out in the same
         order, each with whether the request parsed (malformed
         counting) *)
  sweep : (float * (unit -> int)) option;  (* interval, sweep *)
  drain_timeout : float;
  listen_fd : Unix.file_descr;
  bound : address;
  stopping : bool Atomic.t;
  mutable loop : Thread.t option;
}

let event_loop srv =
  let poller = Epoll.create () in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  (* connections with parsed requests waiting, in arrival order *)
  let ready : conn Queue.t = Queue.create () in
  Epoll.add poller srv.listen_fd ~readable:true ~writable:false;

  let close_conn ?(failed = false) conn =
    if not conn.dead then begin
      conn.dead <- true;
      Hashtbl.remove conns conn.fd;
      Epoll.remove poller conn.fd;
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      Netstats.record_close ();
      if failed then Netstats.record_failure ()
    end
  in
  let maybe_close conn =
    if
      (not conn.dead) && conn.rd_closed
      && Queue.is_empty conn.pending
      && Bq.is_empty conn.wbuf
    then close_conn conn
  in
  (* Read interest drops after EOF and while stopping: a draining loop
     only flushes. *)
  let update_interest conn =
    let want =
      ( not (conn.rd_closed || Atomic.get srv.stopping),
        not (Bq.is_empty conn.wbuf) )
    in
    if want <> conn.interest then begin
      conn.interest <- want;
      let readable, writable = want in
      Epoll.modify poller conn.fd ~readable ~writable
    end
  in
  let rec try_write conn =
    if (not conn.dead) && not (Bq.is_empty conn.wbuf) then begin
      match Unix.write conn.fd conn.wbuf.Bq.buf conn.wbuf.Bq.off conn.wbuf.Bq.len with
      | n ->
        Netstats.record_write n;
        Bq.consume conn.wbuf n;
        if n > 0 then try_write conn
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> try_write conn
      | exception (Unix.Unix_error _ | Sys_error _) ->
        close_conn ~failed:true conn
    end;
    if not conn.dead then begin
      update_interest conn;
      maybe_close conn
    end
  in
  let buffer_response conn payload =
    match conn.mode with
    | Line ->
      Bq.add_string conn.wbuf payload;
      Bq.add_string conn.wbuf "\n"
    | Binary -> Bq.add_frame conn.wbuf payload
  in
  let enqueue conn payload =
    Queue.push payload conn.pending;
    if not conn.ready then begin
      conn.ready <- true;
      Queue.push conn ready
    end
  in
  (* Extract every complete request sitting in the read buffer.  The
     handshake line is only honoured before any request is pending — so
     switching framings can never reorder or reframe an earlier
     reply. *)
  let parse_conn conn =
    let progress = ref true in
    while !progress && not conn.dead do
      progress := false;
      match conn.mode with
      | Line -> (
        match Bq.index_newline conn.rbuf with
        | Some i ->
          let raw = Bq.take_string conn.rbuf i in
          Bq.consume conn.rbuf 1;
          let line = String.trim raw in
          progress := true;
          if line = "" then ()
          else if line = Frame.handshake_request && Queue.is_empty conn.pending
          then begin
            conn.mode <- Binary;
            Netstats.record_binary ();
            Bq.add_string conn.wbuf (Frame.handshake_ack ^ "\n");
            try_write conn
          end
          else enqueue conn line
        | None ->
          if Bq.length conn.rbuf > Frame.max_payload then begin
            (* an endless line is not a protocol we speak *)
            Netstats.record_malformed ();
            close_conn ~failed:true conn
          end
          else if conn.rd_closed && not (Bq.is_empty conn.rbuf) then begin
            (* final unterminated line before EOF: the old input_line
               loop served it, so keep doing that *)
            let raw = Bq.take_string conn.rbuf (Bq.length conn.rbuf) in
            let line = String.trim raw in
            if line <> "" then enqueue conn line
          end)
      | Binary -> (
        match
          Frame.decode conn.rbuf.Bq.buf ~off:conn.rbuf.Bq.off
            ~len:conn.rbuf.Bq.len
        with
        | Frame.Frame (payload, used) ->
          Bq.consume conn.rbuf used;
          enqueue conn payload;
          progress := true
        | Frame.Need_more -> ()
        | Frame.Junk _ ->
          Netstats.record_malformed ();
          close_conn ~failed:true conn)
    done;
    maybe_close conn;
    if not conn.dead then update_interest conn
  in
  let read_conn conn =
    let rec go () =
      Bq.reserve conn.rbuf 65536;
      let room = Bytes.length conn.rbuf.Bq.buf - conn.rbuf.Bq.off - conn.rbuf.Bq.len in
      match
        Unix.read conn.fd conn.rbuf.Bq.buf (conn.rbuf.Bq.off + conn.rbuf.Bq.len) room
      with
      | 0 -> conn.rd_closed <- true
      | n ->
        Netstats.record_read n;
        conn.rbuf.Bq.len <- conn.rbuf.Bq.len + n
        (* level-triggered: anything left is reported on the next wait,
           so one read per event keeps connections fair *)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception (Unix.Unix_error _ | Sys_error _) ->
        close_conn ~failed:true conn
    in
    go ();
    if not conn.dead then parse_conn conn
  in
  let rec accept_loop () =
    match Unix.accept srv.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      let conn =
        {
          fd;
          mode = Line;
          rbuf = Bq.create 4096;
          wbuf = Bq.create 4096;
          pending = Queue.create ();
          ready = false;
          replies = 0;
          rd_closed = false;
          interest = (true, false);
          dead = false;
        }
      in
      Hashtbl.replace conns fd conn;
      Epoll.add poller fd ~readable:true ~writable:false;
      Netstats.record_accept ();
      accept_loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
      accept_loop ()
    | exception Unix.Unix_error _ -> ()
  in
  (* Run one turn: up to [max_pipeline] requests from each ready
     connection, in arrival order, through the turn function; then
     buffer every reply and flush each touched connection once, so
     replies of one turn leave in one write per connection.  A
     connection with requests left over goes to the back of the line
     for the next turn. *)
  let run_turn () =
    let n = Queue.length ready in
    let taken = ref [] in
    for _ = 1 to n do
      let conn = Queue.pop ready in
      conn.ready <- false;
      if not conn.dead then begin
        let k = ref 0 in
        while !k < max_pipeline && not (Queue.is_empty conn.pending) do
          taken := (conn, Queue.pop conn.pending) :: !taken;
          incr k;
          Netstats.record_request ()
        done;
        Netstats.record_depth !k;
        if not (Queue.is_empty conn.pending) then begin
          conn.ready <- true;
          Queue.push conn ready
        end
      end
    done;
    match List.rev !taken with
    | [] -> ()
    | taken ->
      let replies = srv.turn (Array.of_list (List.map snd taken)) in
      let touched = ref [] in
      List.iteri
        (fun i (conn, _) ->
          let reply, parsed = replies.(i) in
          if not parsed then Netstats.record_malformed ();
          if not conn.dead then begin
            if conn.replies = 0 then touched := conn :: !touched;
            conn.replies <- conn.replies + 1;
            buffer_response conn reply
          end)
        taken;
      List.iter
        (fun conn ->
          Netstats.record_flush ();
          Netstats.record_coalesced (conn.replies - 1);
          conn.replies <- 0;
          try_write conn)
        (List.rev !touched)
  in
  let next_sweep =
    ref (match srv.sweep with Some (every, _) -> Unix.gettimeofday () +. every | None -> infinity)
  in
  let run_sweep () =
    match srv.sweep with
    | Some (every, sweep) when Unix.gettimeofday () >= !next_sweep ->
      (try ignore (sweep ())
       with exn ->
         Printf.eprintf "jim: idle sweep failed: %s\n%!" (Printexc.to_string exn));
      next_sweep := Unix.gettimeofday () +. every
    | _ -> ()
  in
  (* After [stopping] flips, stop accepting and reading, but finish the
     requests already read and flush their replies — bounded by the
     drain deadline; idle connections are simply dropped. *)
  let deadline = ref None in
  let begin_drain () =
    deadline := Some (Unix.gettimeofday () +. srv.drain_timeout);
    Epoll.remove poller srv.listen_fd;
    Hashtbl.iter (fun _ conn -> update_interest conn) conns
  in
  let drained () =
    Queue.is_empty ready
    && Hashtbl.fold (fun _ c acc -> acc && Bq.is_empty c.wbuf) conns true
  in
  let rec run () =
    if Atomic.get srv.stopping && !deadline = None then begin_drain ();
    let stop =
      match !deadline with
      | None -> false
      | Some d -> drained () || Unix.gettimeofday () > d
    in
    if not stop then begin
      let timeout_ms =
        if not (Queue.is_empty ready) then 0
        else if !deadline <> None then 20
        else
          let to_sweep = (!next_sweep -. Unix.gettimeofday ()) *. 1000. in
          int_of_float (Float.ceil (Float.max 0. (Float.min 200. to_sweep)))
      in
      let evs = Epoll.wait poller ~timeout_ms in
      let reading = !deadline = None in
      List.iter
        (fun { Epoll.fd; readable; writable } ->
          if fd = srv.listen_fd then begin
            if readable && reading then accept_loop ()
          end
          else
            match Hashtbl.find_opt conns fd with
            | None -> ()
            | Some conn ->
              if writable && not conn.dead then try_write conn;
              if readable && reading && not conn.dead then read_conn conn)
        evs;
      if reading then run_sweep ();
      run_turn ();
      run ()
    end
  in
  run ();
  Hashtbl.iter
    (fun _ conn ->
      conn.dead <- true;
      try Unix.close conn.fd with Unix.Unix_error _ -> ())
    conns;
  Hashtbl.reset conns;
  Epoll.close poller;
  try Unix.close srv.listen_fd with Unix.Unix_error _ -> ()

let serve_turns ?(config = default_config) ?(sweep_every = 30.) ?sweep turn addr =
  ignore_sigpipe ();
  let fd = socket_for addr in
  (match addr with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd (sockaddr_of addr);
  Unix.listen fd backlog;
  Unix.set_nonblock fd;
  let bound =
    match addr with
    | Tcp (host, 0) -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> Tcp (host, port)
      | _ -> addr)
    | a -> a
  in
  let srv =
    {
      turn;
      sweep = Option.map (fun f -> (sweep_every, f)) sweep;
      drain_timeout = config.drain_timeout;
      listen_fd = fd;
      bound;
      stopping = Atomic.make false;
      loop = None;
    }
  in
  srv.loop <- Some (Thread.create event_loop srv);
  srv

let serve_handler ?config ?sweep_every ?sweep handler addr =
  let guarded payload =
    try handler payload
    with exn ->
      ( P.response_to_string
          (P.Failed (P.Bad_request ("internal error: " ^ Printexc.to_string exn))),
        true )
  in
  serve_turns ?config ?sweep_every ?sweep (Array.map guarded) addr

let bound_address srv = srv.bound
let wait srv = Option.iter Thread.join srv.loop

let request_shutdown srv =
  if not (Atomic.exchange srv.stopping true) then
    (* Wake the loop out of epoll_wait: shutting the listening socket
       down makes it readable (HUP) at once.  The loop itself closes
       it. *)
    try Unix.shutdown srv.listen_fd Unix.SHUTDOWN_RECEIVE
    with Unix.Unix_error _ -> ()

let shutdown srv =
  request_shutdown srv;
  wait srv;
  match srv.bound with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

(* ------------------------------------------------------------------ *)
(* Client                                                              *)

type client = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  framing : framing;
}

let negotiate_binary fd ic oc =
  match
    output_string oc Frame.handshake_request;
    output_char oc '\n';
    flush oc;
    input_line ic
  with
  | ack when ack = Frame.handshake_ack -> Ok { fd; ic; oc; framing = Binary }
  | ack ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error ("server refused binary framing: " ^ ack)
  | exception End_of_file ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error "server closed the connection during framing negotiation"
  | exception Sys_error msg ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error msg
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Unix.error_message e)

let connect ?(retries = 0) ?(framing = Line) addr =
  ignore_sigpipe ();
  let rec attempt k =
    let fd = socket_for addr in
    match Unix.connect fd (sockaddr_of addr) with
    | () -> (
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      match framing with
      | Line -> Ok { fd; ic; oc; framing = Line }
      | Binary -> negotiate_binary fd ic oc)
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT) as e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if k < retries then begin
        Thread.delay 0.1;
        attempt (k + 1)
      end
      else Error (Unix.error_message e)
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)
  in
  attempt 0

(* Sending and receiving are split so a pipelining client can keep
   several requests in flight on one connection: send K, then match the
   K in-order replies back.  [call_line] composes them for the classic
   one-at-a-time exchange. *)

let send_line ?(flush = true) c line =
  match c.framing with
  | Line -> (
    match
      output_string c.oc line;
      output_char c.oc '\n';
      if flush then Stdlib.flush c.oc
    with
    | () -> Ok ()
    | exception Sys_error msg -> Error msg
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
  | Binary -> (
    match
      let n = String.length line in
      if n > Frame.max_payload then failwith "request too large to frame";
      let hdr = Bytes.create Frame.header_size in
      Frame.write_length hdr ~off:0 n;
      output_bytes c.oc hdr;
      output_string c.oc line;
      if flush then Stdlib.flush c.oc
    with
    | () -> Ok ()
    | exception Failure msg -> Error msg
    | exception Sys_error msg -> Error msg
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

let recv_line c =
  match c.framing with
  | Line -> (
    match
      flush c.oc;
      input_line c.ic
    with
    | reply -> Ok reply
    | exception End_of_file -> Error "server closed the connection"
    (* SO_RCVTIMEO ([set_timeout]) surfaces through the buffered channel
       as [Sys_blocked_io], not [Unix_error]: a stalled peer must come
       back as a transport error, never escape as an exception. *)
    | exception Sys_blocked_io -> Error "receive timed out"
    | exception Sys_error msg -> Error msg
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
  | Binary -> (
    match
      flush c.oc;
      let hdr = really_input_string c.ic Frame.header_size in
      let len = Frame.read_length (Bytes.unsafe_of_string hdr) ~off:0 in
      if len < 0 || len > Frame.max_payload then
        failwith (Printf.sprintf "bad reply frame length %d" len);
      really_input_string c.ic len
    with
    | reply -> Ok reply
    | exception End_of_file -> Error "server closed the connection"
    | exception Sys_blocked_io -> Error "receive timed out"
    | exception Failure msg -> Error msg
    | exception Sys_error msg -> Error msg
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

let call_line c line =
  match send_line c line with Error _ as e -> e | Ok () -> recv_line c

let call c req =
  match call_line c (P.request_to_string req) with
  | Error _ as e -> e
  | Ok line -> (
    match P.response_of_string line with
    | Ok resp -> Ok resp
    | Error e -> Error ("bad reply: " ^ P.error_to_string e))

let set_timeout c seconds =
  try Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO seconds
  with Unix.Unix_error _ | Invalid_argument _ -> ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
