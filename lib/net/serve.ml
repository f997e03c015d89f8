module Obs = Volcano_obs.Obs

(* The query-serving plane: a daemon wrapping a Session behind the same
   framed protocol the data plane uses, a thread per connection (handler
   threads spend their lives blocked in socket reads or in Session.await,
   both safe off the fiber pool), and a tiny client.

   A connection is persistent: a client sends any number of Request
   frames, each answered by exactly one Resp_ok/Resp_err, so a
   load-generating client measures per-request latency without paying a
   connection setup per query. *)

type handler = string -> (Volcano_tuple.Tuple.t list, string * string) result

module Server = struct
  type t = {
    listener : Unix.file_descr;
    stopping : bool Atomic.t;
    lock : Mutex.t;
    mutable conns : Unix.file_descr list;
    mutable handlers : Thread.t list;
    mutable acceptor : Thread.t option;
    requests : Obs.Counter.t;
    errors : Obs.Counter.t;
    latency : Obs.Histogram.t;
  }

  let with_lock t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let requests t = Obs.Counter.value t.requests
  let errors t = Obs.Counter.value t.errors

  let initiate_stop t =
    if not (Atomic.exchange t.stopping true) then begin
      (* Closing the listener kicks the acceptor out of accept; shutting
         the live connections kicks handlers out of their reads. *)
      (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with _ -> ());
      (try Unix.close t.listener with _ -> ());
      with_lock t (fun () -> t.conns)
      |> List.iter (fun fd ->
             try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
    end

  let handle_conn t ~handle fd =
    let finally () =
      with_lock t (fun () -> t.conns <- List.filter (fun c -> c <> fd) t.conns);
      try Unix.close fd with _ -> ()
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
    let t =
      {
        listener;
        stopping = Atomic.make false;
        lock = Mutex.create ();
        conns = [];
        handlers = [];
        acceptor = None;
        requests = Obs.counter obs "serve.requests";
        errors = Obs.counter obs "serve.errors";
        latency = Obs.histogram obs "serve.latency_s";
      }
    in
    let acceptor =
      (* conclint: allow CL004 -- serve's acceptor and connection threads
         move onto the scheduler in ROADMAP item 9; until then each
         blocks in accept or a socket read, off the pool. *)
      Thread.create
        (fun () ->
          let rec loop () =
            match
              (* conclint: allow CL003 -- the acceptor is a dedicated
                 systhread, never a pool fiber. *)
              Unix.accept ~cloexec:true t.listener
            with
            | fd, _ ->
                if Atomic.get t.stopping then (
                  try Unix.close fd with _ -> ())
                else begin
                  with_lock t (fun () ->
                      t.conns <- fd :: t.conns;
                      t.handlers <-
                        (* conclint: allow CL004 -- a connection thread;
                           see the acceptor above (ROADMAP item 9). *)
                        Thread.create (fun () -> handle_conn t ~handle fd) ()
                        :: t.handlers)
                end;
                loop ()
            | exception _ -> () (* listener closed: stopping *)
          in
          loop ())
        ()
    in
    t.acceptor <- Some acceptor;
    t

  let stop t =
    initiate_stop t;
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    let rec drain () =
      match with_lock t (fun () -> t.handlers) with
      | [] -> ()
      | handlers ->
          with_lock t (fun () ->
              t.handlers <-
                List.filter
                  (fun th -> not (List.memq th handlers))
                  t.handlers);
          List.iter Thread.join handlers;
          drain ()
    in
    drain ()

  (* Block until something stops the server (a [Shutdown] frame, or
     [stop] from another thread), then finish the teardown.  The daemon
     entry point's main loop. *)
  let wait t =
    (match t.acceptor with Some th -> Thread.join th | None -> ());
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
