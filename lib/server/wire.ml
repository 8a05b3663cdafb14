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

(* One event-loop thread owns every socket: non-blocking reads and
   writes, per-connection buffers, framing negotiation.  Parsed request
   payloads go to a worker pool (scoring is the expensive part and must
   not stall the loop); completed responses come back over a queue plus
   a wake pipe.  A thousand mostly-idle clients therefore cost a
   thousand fds in one epoll set, not a thousand blocked threads. *)

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
    Bytes.set t.buf base (Char.chr (n land 0xff));
    Bytes.set t.buf (base + 1) (Char.chr ((n lsr 8) land 0xff));
    Bytes.set t.buf (base + 2) (Char.chr ((n lsr 16) land 0xff));
    Bytes.set t.buf (base + 3) (Char.chr ((n lsr 24) land 0xff));
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

type config = {
  threads : int;
  backlog : int;
  drain_timeout : float;
  max_pipeline : int;
}

let default_config =
  {
    threads = 16;
    backlog = 64;
    drain_timeout = 2.0;
    max_pipeline = 8;
  }

type conn = {
  fd : Unix.file_descr;
  token : int;
      (* completions address connections by token, never by fd: the
         kernel reuses fd numbers the moment one closes, a token is
         never reused — a late response can only be dropped, not
         delivered to the wrong peer *)
  mutable mode : framing;
  rbuf : Bq.t;
  wbuf : Bq.t;
  pending : string Queue.t;  (* parsed payloads not yet dispatched *)
  mutable in_flight : int;
      (* requests handed to workers whose replies have not been emitted
         yet — bounded by the server's pipeline depth *)
  mutable next_seq : int;  (* per-conn sequence stamped on dispatch *)
  mutable next_reply : int;  (* next sequence to emit (request order) *)
  replies : (int, string) Hashtbl.t;
      (* completed replies waiting for an earlier sequence to finish —
         the reorder buffer that keeps responses in request order even
         when workers finish out of order *)
  mutable rd_closed : bool;  (* peer EOF seen; flush replies, then close *)
  mutable want_out : bool;   (* registered for writability *)
  mutable dead : bool;
}

type server = {
  handler : string -> string * bool;
      (* one request payload in, one response payload out, plus whether
         the request parsed at all (malformed counting) *)
  drain_timeout : float;
  max_pipeline : int;  (* in-flight requests allowed per connection *)
  listen_fd : Unix.file_descr;
  bound : address;
  jobs : (int * int * string) Queue.t;  (* token, seq, request payload *)
  jlock : Mutex.t;
  jcond : Condition.t;
  completions : (int * int * string) Queue.t;  (* token, seq, response *)
  clock : Mutex.t;
  mutable stopping : bool;
  mutable pool : Thread.t list;
      (* event loop + workers + sweeper; joined on shutdown *)
  wake_r : Unix.file_descr;
      (* self-pipe: workers wake the event loop out of epoll_wait when a
         completion lands (and shutdown wakes it to exit) *)
  wake_w : Unix.file_descr;
  stop_r : Unix.file_descr;
      (* self-pipe: the sweeper sleeps in [select] on this instead of
         [Thread.delay], so shutdown can wake it instantly and join it *)
  stop_w : Unix.file_descr;
}

let wake srv =
  (* Nonblocking: a full pipe already holds a pending wake. *)
  try ignore (Unix.write srv.wake_w (Bytes.of_string "w") 0 1)
  with Unix.Unix_error _ -> ()

let worker srv =
  let rec next () =
    Mutex.lock srv.jlock;
    while Queue.is_empty srv.jobs && not srv.stopping do
      Condition.wait srv.jcond srv.jlock
    done;
    let job =
      if Queue.is_empty srv.jobs then None else Some (Queue.pop srv.jobs)
    in
    Mutex.unlock srv.jlock;
    match job with
    | None -> ()
    | Some (token, seq, payload) ->
      let resp, parsed = srv.handler payload in
      if not parsed then Netstats.record_malformed ();
      Mutex.lock srv.clock;
      Queue.push (token, seq, resp) srv.completions;
      Mutex.unlock srv.clock;
      wake srv;
      next ()
  in
  next ()

let event_loop srv =
  let poller = Epoll.create () in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 64 in
  let by_fd : (Unix.file_descr, int) Hashtbl.t = Hashtbl.create 64 in
  let next_token = ref 0 in
  Epoll.add poller srv.listen_fd ~readable:true ~writable:false;
  Epoll.add poller srv.wake_r ~readable:true ~writable:false;

  let close_conn ?(failed = false) conn =
    if not conn.dead then begin
      conn.dead <- true;
      Hashtbl.remove conns conn.token;
      Hashtbl.remove by_fd conn.fd;
      Epoll.remove poller conn.fd;
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      Netstats.record_close ();
      if failed then Netstats.record_failure ()
    end
  in
  let maybe_close conn =
    if
      (not conn.dead) && conn.rd_closed && conn.in_flight = 0
      && Queue.is_empty conn.pending
      && Bq.is_empty conn.wbuf
    then close_conn conn
  in
  let update_interest conn =
    let want = not (Bq.is_empty conn.wbuf) in
    if want <> conn.want_out then begin
      conn.want_out <- want;
      Epoll.modify poller conn.fd ~readable:true ~writable:want
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
  (* Hand up to [max_pipeline] parsed requests to the workers at once.
     Each carries the connection's sequence number, so replies can be
     reassembled into request order no matter which worker finishes
     first. *)
  let dispatch conn =
    let burst = ref 0 in
    while
      (not conn.dead)
      && conn.in_flight < srv.max_pipeline
      && not (Queue.is_empty conn.pending)
    do
      let payload = Queue.pop conn.pending in
      let seq = conn.next_seq in
      conn.next_seq <- seq + 1;
      conn.in_flight <- conn.in_flight + 1;
      Netstats.record_request ();
      Netstats.record_depth conn.in_flight;
      Mutex.lock srv.jlock;
      Queue.push (conn.token, seq, payload) srv.jobs;
      Mutex.unlock srv.jlock;
      incr burst
    done;
    if !burst > 0 then begin
      (* One signal per queued job, not a broadcast: a pipelined burst
         needs exactly [burst] workers, and waking the whole (possibly
         much larger) idle pool for every burst is a thundering herd
         that costs more than the requests themselves under load.  A
         signal landing on an already-running worker is harmless — any
         awake worker drains the queue before sleeping. *)
      Mutex.lock srv.jlock;
      for _ = 1 to !burst do
        Condition.signal srv.jcond
      done;
      Mutex.unlock srv.jlock
    end
  in
  (* Append a response to the connection's write buffer without
     flushing: completions are buffered per event-loop round and
     flushed once per touched connection, so replies that complete
     together leave in one write. *)
  let buffer_response conn payload =
    match conn.mode with
    | Line ->
      Bq.add_string conn.wbuf payload;
      Bq.add_string conn.wbuf "\n"
    | Binary -> Bq.add_frame conn.wbuf payload
  in
  (* Extract every complete request sitting in the read buffer.  The
     handshake line is only honoured before any request is in flight —
     so switching framings can never reorder or reframe an earlier
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
          else if
            line = Frame.handshake_request
            && conn.in_flight = 0
            && Queue.is_empty conn.pending
          then begin
            conn.mode <- Binary;
            Netstats.record_binary ();
            Bq.add_string conn.wbuf (Frame.handshake_ack ^ "\n");
            try_write conn
          end
          else Queue.push line conn.pending
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
            if line <> "" then Queue.push line conn.pending
          end)
      | Binary -> (
        match
          Frame.decode conn.rbuf.Bq.buf ~off:conn.rbuf.Bq.off
            ~len:conn.rbuf.Bq.len
        with
        | Frame.Frame (payload, used) ->
          Bq.consume conn.rbuf used;
          Queue.push payload conn.pending;
          progress := true
        | Frame.Need_more -> ()
        | Frame.Junk _ ->
          Netstats.record_malformed ();
          close_conn ~failed:true conn)
    done;
    if not conn.dead then begin
      dispatch conn;
      maybe_close conn
    end
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
      incr next_token;
      let conn =
        {
          fd;
          token = !next_token;
          mode = Line;
          rbuf = Bq.create 4096;
          wbuf = Bq.create 4096;
          pending = Queue.create ();
          in_flight = 0;
          next_seq = 0;
          next_reply = 0;
          replies = Hashtbl.create 4;
          rd_closed = false;
          want_out = false;
          dead = false;
        }
      in
      Hashtbl.replace conns conn.token conn;
      Hashtbl.replace by_fd fd conn.token;
      Epoll.add poller fd ~readable:true ~writable:false;
      Netstats.record_accept ();
      accept_loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
      accept_loop ()
    | exception Unix.Unix_error _ -> ()  (* listen fd closed: shutting down *)
  in
  let drain_wake () =
    let scratch = Bytes.create 256 in
    let rec go () =
      match Unix.read srv.wake_r scratch 0 256 with
      | 256 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  (* Drain the completion queue in one go: buffer every reply (in
     request order, via the per-conn reorder buffer), refill each
     connection's worker pipeline, then flush each touched connection
     once — replies that completed in the same round leave in one
     socket write. *)
  let handle_completions () =
    Mutex.lock srv.clock;
    let batch = Queue.create () in
    Queue.transfer srv.completions batch;
    Mutex.unlock srv.clock;
    let touched : (int, conn * int ref) Hashtbl.t = Hashtbl.create 8 in
    Queue.iter
      (fun (token, seq, resp) ->
        match Hashtbl.find_opt conns token with
        | None -> ()  (* connection died while the worker was busy *)
        | Some conn ->
          conn.in_flight <- conn.in_flight - 1;
          Hashtbl.replace conn.replies seq resp;
          let emitted =
            match Hashtbl.find_opt touched token with
            | Some (_, e) -> e
            | None ->
              let e = ref 0 in
              Hashtbl.replace touched token (conn, e);
              e
          in
          let rec emit () =
            match Hashtbl.find_opt conn.replies conn.next_reply with
            | None -> ()
            | Some r ->
              Hashtbl.remove conn.replies conn.next_reply;
              conn.next_reply <- conn.next_reply + 1;
              buffer_response conn r;
              incr emitted;
              emit ()
          in
          emit ();
          if not conn.dead then dispatch conn)
      batch;
    Hashtbl.iter
      (fun _ (conn, emitted) ->
        if (not conn.dead) && !emitted > 0 then begin
          Netstats.record_flush ();
          Netstats.record_coalesced (!emitted - 1);
          try_write conn
        end
        else if not conn.dead then maybe_close conn)
      touched
  in
  (* After [stopping] flips, linger briefly so replies already being
     computed still go out — the contract is that in-flight requests
     finish; idle connections are simply dropped. *)
  let draining () =
    Hashtbl.fold
      (fun _ c acc -> acc || c.in_flight > 0 || not (Bq.is_empty c.wbuf))
      conns false
  in
  let deadline = ref None in
  let rec run () =
    let stop =
      if not srv.stopping then false
      else begin
        (match !deadline with
        | None -> deadline := Some (Unix.gettimeofday () +. srv.drain_timeout)
        | Some _ -> ());
        (not (draining ()))
        || (match !deadline with
           | Some d -> Unix.gettimeofday () > d
           | None -> false)
      end
    in
    if not stop then begin
      let timeout_ms = if srv.stopping then 20 else 200 in
      let evs = Epoll.wait poller ~timeout_ms in
      List.iter
        (fun { Epoll.fd; readable; writable } ->
          if fd = srv.listen_fd then begin
            if readable && not srv.stopping then accept_loop ()
          end
          else if fd = srv.wake_r then begin
            if readable then drain_wake ()
          end
          else
            match Hashtbl.find_opt by_fd fd with
            | None -> ()
            | Some token -> (
              match Hashtbl.find_opt conns token with
              | None -> ()
              | Some conn ->
                if writable && not conn.dead then try_write conn;
                if readable && not conn.dead then read_conn conn))
        evs;
      handle_completions ();
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
  Hashtbl.reset by_fd;
  Epoll.close poller

let sweeper srv interval sweep =
  let rec loop () =
    if not srv.stopping then begin
      (match Unix.select [ srv.stop_r ] [] [] interval with
      | [], _, _ -> ()  (* interval elapsed *)
      | _ -> ()  (* shutdown wrote the wake byte *)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if not srv.stopping then begin
        ignore (sweep ());
        loop ()
      end
    end
  in
  loop ()

let serve_handler ?(config = default_config) ?(sweep_every = 30.) ?sweep handler
    addr =
  ignore_sigpipe ();
  let fd = socket_for addr in
  (match addr with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd (sockaddr_of addr);
  Unix.listen fd config.backlog;
  Unix.set_nonblock fd;
  let bound =
    match addr with
    | Tcp (host, 0) -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> Tcp (host, port)
      | _ -> addr)
    | a -> a
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let stop_r, stop_w = Unix.pipe () in
  let srv =
    {
      handler;
      drain_timeout = config.drain_timeout;
      max_pipeline = max 1 config.max_pipeline;
      listen_fd = fd;
      bound;
      jobs = Queue.create ();
      jlock = Mutex.create ();
      jcond = Condition.create ();
      completions = Queue.create ();
      clock = Mutex.create ();
      stopping = false;
      pool = [];
      wake_r;
      wake_w;
      stop_r;
      stop_w;
    }
  in
  let workers =
    List.init (max 1 config.threads) (fun _ -> Thread.create worker srv)
  in
  let loop = Thread.create event_loop srv in
  let housekeeping =
    match sweep with
    | None -> []
    | Some f ->
      [ Thread.create (fun () -> sweeper srv sweep_every f) () ]
  in
  srv.pool <- housekeeping @ (loop :: workers);
  srv

let bound_address srv = srv.bound
let wait srv = List.iter Thread.join srv.pool

let shutdown srv =
  srv.stopping <- true;
  (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  (* Wake the event loop out of epoll_wait and the sweeper out of its
     select sleep. *)
  wake srv;
  (try ignore (Unix.write srv.stop_w (Bytes.of_string "x") 0 1)
   with Unix.Unix_error _ -> ());
  Mutex.lock srv.jlock;
  Condition.broadcast srv.jcond;
  Mutex.unlock srv.jlock;
  List.iter Thread.join srv.pool;
  (try Unix.close srv.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close srv.wake_w with Unix.Unix_error _ -> ());
  (try Unix.close srv.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close srv.stop_w with Unix.Unix_error _ -> ());
  Mutex.lock srv.jlock;
  Queue.clear srv.jobs;
  Mutex.unlock srv.jlock;
  Mutex.lock srv.clock;
  Queue.clear srv.completions;
  Mutex.unlock srv.clock;
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

let client_framing c = c.framing

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
      output_char c.oc (Char.chr (n land 0xff));
      output_char c.oc (Char.chr ((n lsr 8) land 0xff));
      output_char c.oc (Char.chr ((n lsr 16) land 0xff));
      output_char c.oc (Char.chr ((n lsr 24) land 0xff));
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
      let len =
        Char.code hdr.[0]
        lor (Char.code hdr.[1] lsl 8)
        lor (Char.code hdr.[2] lsl 16)
        lor (Char.code hdr.[3] lsl 24)
      in
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
