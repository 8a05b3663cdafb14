type plan = {
  drop : int option;
  drop_lines : int;
  trickle : int option;
  partial : int option;
  stall : int option;
  delay_ms : int;
}

let plan_none =
  {
    drop = None;
    drop_lines = 2;
    trickle = None;
    partial = None;
    stall = None;
    delay_ms = 1;
  }

let plan_to_string p =
  let parts =
    List.filter_map Fun.id
      [
        Option.map (Printf.sprintf "drop=%d") p.drop;
        (if p.drop <> None && p.drop_lines <> plan_none.drop_lines then
           Some (Printf.sprintf "drop-lines=%d" p.drop_lines)
         else None);
        Option.map (Printf.sprintf "trickle=%d") p.trickle;
        Option.map (Printf.sprintf "partial=%d") p.partial;
        Option.map (Printf.sprintf "stall=%d") p.stall;
        (if p.delay_ms <> plan_none.delay_ms then
           Some (Printf.sprintf "delay-ms=%d" p.delay_ms)
         else None);
      ]
  in
  match parts with [] -> "none" | _ -> String.concat "," parts

let ( let* ) = Result.bind

let plan_of_string s =
  let s = String.trim s in
  let int_arg ~min key v =
    match int_of_string_opt (String.trim v) with
    | Some n when n >= min -> Ok n
    | _ -> Error (Printf.sprintf "%s wants an integer >= %d, got %S" key min v)
  in
  if s = "" || s = "none" then Ok plan_none
  else
    List.fold_left
      (fun acc tok ->
        let* p = acc in
        match String.index_opt tok '=' with
        | None -> Error (Printf.sprintf "bad chaos fault %S (want key=value)" tok)
        | Some i -> (
          let key = String.sub tok 0 i in
          let v = String.sub tok (i + 1) (String.length tok - i - 1) in
          match key with
          | "drop" ->
            let* n = int_arg ~min:1 key v in
            Ok { p with drop = Some n }
          | "drop-lines" ->
            let* n = int_arg ~min:0 key v in
            Ok { p with drop_lines = n }
          | "trickle" ->
            let* n = int_arg ~min:1 key v in
            Ok { p with trickle = Some n }
          | "partial" ->
            let* n = int_arg ~min:1 key v in
            Ok { p with partial = Some n }
          | "stall" ->
            let* n = int_arg ~min:1 key v in
            Ok { p with stall = Some n }
          | "delay-ms" ->
            let* n = int_arg ~min:0 key v in
            Ok { p with delay_ms = n }
          | _ ->
            Error
              (Printf.sprintf
                 "unknown chaos fault %S (try drop, drop-lines, trickle, \
                  partial, stall, delay-ms)"
                 key)))
      (Ok plan_none)
      (String.split_on_char ',' s)

(* ------------------------------------------------------------------ *)

type stats = {
  connections : int;
  dropped : int;
  trickled : int;
  chopped : int;
  stalled : int;
}

type t = {
  plan : plan;
  log : string -> unit;
  listen_fd : Unix.file_descr;
  bound : Wire.address;
  upstream : Wire.address;
  lock : Mutex.t;
  mutable st : stats;
  mutable stopping : bool;
  mutable acceptor : Thread.t option;
  mutable conns : Thread.t list;
  live : (int, Unix.file_descr) Hashtbl.t;
      (* client sockets of running connections, by index; a connection
         leaves the table before it closes its socket *)
}

let bound t = t.bound

let stats t =
  Mutex.lock t.lock;
  let s = t.st in
  Mutex.unlock t.lock;
  s

let bump t f =
  Mutex.lock t.lock;
  t.st <- f t.st;
  Mutex.unlock t.lock

(* What this connection gets.  Drop beats the delivery faults: a cut
   connection exercises the client's EOF path, no point also slowing it. *)
type mode = Forward | Drop | Trickle | Partial | Stall

let hits n = function Some k -> n mod k = 0 | None -> false

let mode_of plan n =
  if hits n plan.drop then Drop
  else if hits n plan.trickle then Trickle
  else if hits n plan.partial then Partial
  else if hits n plan.stall then Stall
  else Forward

let pause ms = if ms > 0 then Thread.delay (float_of_int ms /. 1000.)

(* Deliver one complete reply's bytes downstream, per mode.  [data] is
   the exact wire bytes — line + newline in line framing, one whole
   binary frame (header + payload) otherwise — so the fault modes tear
   replies identically under both framings.  Every mode ultimately
   delivers everything; only [Drop] (handled by the caller) withholds
   data, and only at reply boundaries. *)
let deliver t mode oc index data =
  let whole () =
    output_string oc data;
    flush oc
  in
  match mode with
  | Forward | Drop -> whole ()
  | Stall ->
    pause (10 * t.plan.delay_ms);
    whole ()
  | Trickle ->
    String.iter
      (fun c ->
        output_char oc c;
        flush oc;
        pause t.plan.delay_ms)
      data
  | Partial ->
    (* Deterministic ragged chunks, 1..5 bytes, phase-shifted by the
       connection index so different connections tear differently. *)
    let n = String.length data in
    let pos = ref 0 in
    let k = ref index in
    while !pos < n do
      let len = min (n - !pos) (1 + ((!k * 7) mod 5)) in
      output_string oc (String.sub data !pos len);
      flush oc;
      pause t.plan.delay_ms;
      pos := !pos + len;
      incr k
    done

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let release t index fd =
  Mutex.protect t.lock (fun () -> Hashtbl.remove t.live index);
  close_fd fd

let handle_conn t index fd =
  let mode = mode_of t.plan index in
  (match mode with
  | Forward -> ()
  | Drop -> bump t (fun s -> { s with dropped = s.dropped + 1 })
  | Trickle -> bump t (fun s -> { s with trickled = s.trickled + 1 })
  | Partial -> bump t (fun s -> { s with chopped = s.chopped + 1 })
  | Stall -> bump t (fun s -> { s with stalled = s.stalled + 1 }));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let log_mode replies =
    match mode with
    | Trickle | Partial | Stall when replies = 0 ->
      t.log
        (Printf.sprintf "conn %d: %s delivery" index
           (match mode with
           | Trickle -> "trickled"
           | Partial -> "partial-line"
           | _ -> "stalled"))
    | _ -> ()
  in
  let log_drop replies =
    t.log (Printf.sprintf "conn %d: dropped after %d replies" index replies)
  in
  (* The first client line decides the framing: the binary handshake,
     or already a request.  Only then is the upstream dialed — with the
     same framing, so the relay below never re-frames payloads. *)
  match input_line ic with
  | exception (End_of_file | Sys_error _) -> release t index fd
  | first -> (
    let framing =
      if first = Frame.handshake_request then Wire.Binary else Wire.Line
    in
    match Wire.connect ~retries:5 ~framing t.upstream with
    | Error e ->
      t.log (Printf.sprintf "conn %d: upstream unreachable: %s" index e);
      release t index fd
    | Ok up ->
      (* The protocol is lockstep (one reply per request), so a
         reply-level relay is a faithful proxy — and gives us the reply
         boundaries the fault modes are defined on. *)
      let rec line_loop replies request =
        if mode = Drop && replies >= t.plan.drop_lines then log_drop replies
        else
          match Wire.call_line up request with
          | Error _ -> ()  (* upstream died; EOF the client *)
          | Ok reply -> (
            log_mode replies;
            match deliver t mode oc index (reply ^ "\n") with
            | () -> (
              match input_line ic with
              | exception (End_of_file | Sys_error _) -> ()
              | next -> line_loop (replies + 1) next)
            | exception (Sys_error _ | Unix.Unix_error _) -> ())
      in
      (* Binary relay: the proxy acks the handshake itself (the
         upstream connection negotiated its own), then shuttles whole
         4-byte-LE frames.  Faults apply at frame granularity. *)
      let rec frame_loop replies =
        if mode = Drop && replies >= t.plan.drop_lines then log_drop replies
        else
          match really_input_string ic Frame.header_size with
          | exception (End_of_file | Sys_error _) -> ()
          | hdr -> (
            let len = Frame.read_length (Bytes.unsafe_of_string hdr) ~off:0 in
            if len < 0 || len > Frame.max_payload then
              t.log
                (Printf.sprintf "conn %d: bad frame length %d" index len)
            else
              match really_input_string ic len with
              | exception (End_of_file | Sys_error _) -> ()
              | payload -> (
                match Wire.call_line up payload with
                | Error _ -> ()
                | Ok reply -> (
                  log_mode replies;
                  match deliver t mode oc index (Frame.to_string reply) with
                  | () -> frame_loop (replies + 1)
                  | exception (Sys_error _ | Unix.Unix_error _) -> ())))
      in
      (try
         if framing = Wire.Binary then begin
           output_string oc (Frame.handshake_ack ^ "\n");
           flush oc;
           frame_loop 0
         end
         else line_loop 0 first
       with Sys_error _ | Unix.Unix_error _ -> ());
      Wire.close up;
      release t index fd)

let acceptor t =
  let rec loop index =
    if t.stopping then ()
    else
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> loop index
      | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ ->
          bump t (fun s -> { s with connections = s.connections + 1 });
          Mutex.protect t.lock (fun () -> Hashtbl.replace t.live index fd);
          let th = Thread.create (fun () -> handle_conn t index fd) () in
          Mutex.protect t.lock (fun () -> t.conns <- th :: t.conns);
          loop (index + 1)
        | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _)
          ->
          loop index
        | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop index
      | exception Unix.Unix_error _ -> ()
  in
  loop 1

let start ?(log = fun _ -> ()) ~plan ~listen ~upstream () =
  match
    let fd = Wire.socket_for listen in
    (match listen with
    | Wire.Unix_path path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
    | Wire.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
    Unix.bind fd (Wire.sockaddr_of listen);
    Unix.listen fd 64;
    fd
  with
  | exception Unix.Unix_error (e, op, _) ->
    Error (Printf.sprintf "%s: %s" op (Unix.error_message e))
  | exception Failure m -> Error m
  | fd ->
    let bound =
      match listen with
      | Wire.Tcp (host, 0) -> (
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, port) -> Wire.Tcp (host, port)
        | _ -> listen)
      | a -> a
    in
    let t =
      {
        plan;
        log;
        listen_fd = fd;
        bound;
        upstream;
        lock = Mutex.create ();
        st =
          { connections = 0; dropped = 0; trickled = 0; chopped = 0; stalled = 0 };
        stopping = false;
        acceptor = None;
        conns = [];
        live = Hashtbl.create 16;
      }
    in
    t.acceptor <- Some (Thread.create acceptor t);
    Ok t

let wait t = match t.acceptor with None -> () | Some th -> Thread.join th

let shutdown t = t.stopping <- true

(* The acceptor notices [stopping] within one select timeout.  Client
   sockets are shut down before their threads are joined, so a
   connection blocked reading its client (idle or stalled) ends at
   once. *)
let stop t =
  shutdown t;
  wait t;
  close_fd t.listen_fd;
  let conns =
    Mutex.protect t.lock (fun () ->
        Hashtbl.iter
          (fun _ fd ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          t.live;
        let conns = t.conns in
        t.conns <- [];
        conns)
  in
  List.iter Thread.join conns;
  (match t.bound with
  | Wire.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Wire.Tcp _ -> ());
  stats t
