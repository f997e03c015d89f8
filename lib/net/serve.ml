module Obs = Volcano_obs.Obs
module Sched = Volcano_sched.Sched

(* The query-serving plane: a daemon wrapping a Session behind the same
   framed protocol the data plane uses, one fiber per connection on the
   process-wide pool, and a tiny client.

   The listener and every accepted connection are non-blocking: an
   accept, read or write that would block waits on the scheduler's
   poller ([Sched.wait_fd]), so an idle connection holds no pool worker
   and no thread.  A connection is persistent: a client sends any number
   of Request frames, each answered by exactly one Resp_ok/Resp_err, so a
   load-generating client measures per-request latency without paying a
   connection setup per query. *)

type handler = string -> (Volcano_tuple.Tuple.t list, string * string) result

module Server = struct
  type t = {
    listener : Unix.file_descr;
    mutable listening : bool; (* [listener] is open, under [lock] *)
    stopping : bool Atomic.t;
    lock : Mutex.t;
    mutable conns : (Unix.file_descr * unit Sched.task) list;
        (* live connections and their fibers, under [lock] *)
    mutable acceptor : unit Sched.task option;
    requests : Obs.Counter.t;
    errors : Obs.Counter.t;
    latency : Obs.Histogram.t;
  }

  let with_lock t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let requests t = Obs.Counter.value t.requests
  let errors t = Obs.Counter.value t.errors

  (* Shut the descriptors down and no more: shutting the listener wakes
     the acceptor, shutting a connection wakes its fiber.  Each connection
     fiber closes its own descriptor under [lock] as it leaves [conns],
     and [stop] closes the listener under [lock] once the acceptor is
     done, so a number shut down here is never one that was reused. *)
  let initiate_stop t =
    if not (Atomic.exchange t.stopping true) then
      with_lock t (fun () ->
          if t.listening then (
            try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with _ -> ());
          List.iter
            (fun (fd, _) ->
              try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
            t.conns)

  let handle_conn t ~handle fd =
    let finally () =
      with_lock t (fun () ->
          t.conns <- List.filter (fun (c, _) -> c <> fd) t.conns;
          try Unix.close fd with _ -> ())
    in
    Fun.protect ~finally (fun () ->
        let conn = Wire.conn fd in
        let rec loop () =
          match Wire.read conn with
          | Wire.Request, len ->
              Obs.Counter.incr t.requests;
              let t0 = Obs.now () in
              (match handle (Bytes.sub_string (Wire.payload conn) 0 len) with
              | Ok rows -> Codec.send_rows conn rows
              | Error (site, message) ->
                  Obs.Counter.incr t.errors;
                  Wire.write conn Wire.Resp_err (Wire.err ~site ~message)
              | exception exn ->
                  Obs.Counter.incr t.errors;
                  Wire.write conn Wire.Resp_err
                    (Wire.err ~site:"serve" ~message:(Printexc.to_string exn)));
              Obs.Histogram.observe t.latency (Obs.now () -. t0);
              loop ()
          | Wire.Shutdown, _ -> initiate_stop t
          | _, _ -> () (* protocol violation: drop the connection *)
          | exception _ -> () (* client went away (or we are stopping) *)
        in
        loop ())

  (* A connection joins [conns] under [lock], where [stopping] is
     checked too, so [initiate_stop] either shuts it down or it is
     refused here.  Its fiber's exit takes the same lock, so it cannot
     leave [conns] before it has joined. *)
  let rec accept_loop t ~handle =
    match
      (* conclint: allow CL003 -- the listener is non-blocking: an accept
         that would block waits on the poller below. *)
      Unix.accept ~cloexec:true t.listener
    with
    | fd, _ ->
        Unix.set_nonblock fd;
        with_lock t (fun () ->
            if Atomic.get t.stopping then (try Unix.close fd with _ -> ())
            else
              let fiber () = handle_conn t ~handle fd in
              t.conns <- (fd, Sched.fork (Sched.default ()) fiber) :: t.conns);
        accept_loop t ~handle
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      when not (Atomic.get t.stopping) ->
        Sched.wait_fd `Read t.listener;
        accept_loop t ~handle
    | exception _ -> () (* the listener is shut down: stopping *)

  let start ?(obs = Obs.null) ~socket ~handle () =
    (* A client that vanished mid-response must cost one connection,
       not the whole server. *)
    Wire.ignore_sigpipe ();
    (try Unix.unlink socket with _ -> ());
    (* Close-on-exec, like every descriptor here: a query this daemon
       runs may spawn worker processes, which must not inherit the
       listener or another client's connection. *)
    let listener =
      Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
    in
    Unix.bind listener (Unix.ADDR_UNIX socket);
    (* Hundreds of clients connect at once in the load bench: the backlog
       must absorb the burst, not reset it. *)
    Unix.listen listener 1024;
    Unix.set_nonblock listener;
    let t =
      {
        listener;
        listening = true;
        stopping = Atomic.make false;
        lock = Mutex.create ();
        conns = [];
        acceptor = None;
        requests = Obs.counter obs "serve.requests";
        errors = Obs.counter obs "serve.errors";
        latency = Obs.histogram obs "serve.latency_s";
      }
    in
    t.acceptor <-
      Some (Sched.fork (Sched.default ()) (fun () -> accept_loop t ~handle));
    t

  let await_acceptor t =
    Option.iter (fun a -> ignore (Sched.await a)) t.acceptor

  (* Once the acceptor is done nothing waits on the listener and no
     connection joins [conns], so the fibers listed then are the last. *)
  let stop t =
    initiate_stop t;
    await_acceptor t;
    let fibers =
      with_lock t (fun () ->
          if t.listening then begin
            t.listening <- false;
            try Unix.close t.listener with _ -> ()
          end;
          t.conns)
    in
    List.iter (fun (_, fiber) -> ignore (Sched.await fiber)) fibers

  (* Block until something stops the server (a [Shutdown] frame, or
     [stop] from another thread), then finish the teardown.  The daemon
     entry point's main loop. *)
  let wait t =
    await_acceptor t;
    stop t
end

module Client = struct
  type t = Wire.conn

  let connect ~socket =
    Wire.ignore_sigpipe ();
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* conclint: allow CL003 -- clients run on their own threads (bench
       load generators, the CLI), never on a pool fiber. *)
    (try Unix.connect fd (Unix.ADDR_UNIX socket)
     with exn ->
       (try Unix.close fd with _ -> ());
       raise exn);
    Wire.conn fd

  let query conn task =
    Wire.write conn Wire.Request (Bytes.unsafe_of_string task);
    match Wire.read conn with
    | Wire.Resp_ok, len -> Ok (Codec.decode_rows ~len (Wire.payload conn))
    | Wire.Resp_err, len ->
        Error (Wire.parse_err (Bytes.sub (Wire.payload conn) 0 len))
    | _, _ -> raise (Wire.Corrupt "serve: unexpected response kind")

  let shutdown_server conn = Wire.write conn Wire.Shutdown Bytes.empty
  let close conn = try Unix.close (Wire.fd conn) with _ -> ()
end
