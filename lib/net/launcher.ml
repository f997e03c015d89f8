module Injector = Volcano_fault.Injector
module Transport = Volcano.Port.Transport
module Obs = Volcano_obs.Obs
module Clock = Volcano_util.Clock
module Sched = Volcano_sched.Sched

(* Launch a remote producer group: spawn [workers] worker processes, hand
   each a shard of the task over a private socket, and expose each
   connection as a {!Volcano.Port.Transport.source} for
   [Exchange.remote_iterator] to consume.

   The parent is the listener (workers connect back to it), so a worker
   that never comes up is detected here as an accept timeout, not as a
   hang.  Shards are assigned in accept order: the Hello frame tells each
   worker which shard of which task it owns, so the worker binary needs no
   per-shard command line and one [command] template spawns the whole
   group.

   Two lanes carry the same framing: [`Unix] (a temp-path Unix-domain
   socket, the default) and [`Tcp] (loopback, port chosen by the kernel —
   bind port 0 and read it back, so concurrent launchers never race for a
   fixed port). *)

type site_stats = { rows : int Atomic.t; bytes : int Atomic.t }

type launched = {
  sources : Transport.source array;
  pids : int array;  (** worker process ids, in shard order *)
  address : string;
      (** the address workers dialed: a Unix-domain path, or
          ["tcp:127.0.0.1:PORT"] on the TCP lane *)
  stats : site_stats array;
      (** per-site arrival totals (records and payload bytes), indexed by
          shard; mirrored into the sink as [net.site<k>.rows/bytes] *)
}

let accept_timeout_s = 30.0

let rec waitpid_quiet pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_quiet pid
  | exception _ -> ()

(* [dests] is the consumer count a repartitioning edge shipped to its
   workers ([None] on a merge edge): a routed frame must name one of
   them. *)
let source_of ~packet_size ~dests ~rank ~stats ~rows_c ~bytes_c conn pid =
  let terminal : Transport.event option ref = ref None in
  let joined = Atomic.make false in
  let arrived packet ~payload_bytes =
    let rows = Volcano.Packet.length packet in
    Atomic.fetch_and_add stats.rows rows |> ignore;
    Atomic.fetch_and_add stats.bytes payload_bytes |> ignore;
    Obs.Counter.add rows_c rows;
    Obs.Counter.add bytes_c payload_bytes
  in
  let corrupt what =
    Transport.Failed (Wire.Corrupt (Printf.sprintf "worker %d: %s" rank what))
  in
  (* The edge's read set goes out before the first read, whether or not
     the consumer narrowed it: the worker waits for it after resolving
     its task, so it always gets one.  A worker that already died cannot
     read it; the read that follows reports why (its Err frame or the
     torn connection), so a refused write is not the failure to report. *)
  let read_set = ref None and announced = ref false in
  let narrow cols =
    if !announced then invalid_arg "Launcher: narrow after the first pull";
    read_set := Some cols
  in
  let announce () =
    if not !announced then begin
      announced := true;
      try Wire.write conn Wire.Narrow (Wire.narrow !read_set)
      with Unix.Unix_error _ -> ()
    end
  in
  let pull ~alloc =
    match !terminal with
    | Some event -> event
    | None -> (
        let finish event =
          terminal := Some event;
          event
        in
        match
          announce ();
          Wire.read conn
        with
        | Wire.Data, len ->
            let packet = alloc ~dest:None ~capacity:packet_size in
            Codec.decode_into ~len (Wire.payload conn) packet;
            arrived packet ~payload_bytes:len;
            Transport.Data packet
        | Wire.Repartition, len -> (
            (* A routed packet from a repartitioning worker:
               [u16 dest | packet bytes]. *)
            let payload = Wire.payload conn in
            let dest = if len < 2 then -1 else Bytes.get_uint16_le payload 0 in
            match dests with
            | None -> finish (corrupt "routed frame on a merge edge")
            | Some _ when dest < 0 -> finish (corrupt "short routed frame")
            | Some dests when dest >= dests ->
                finish
                  (corrupt
                     (Printf.sprintf "frame routed to consumer %d of %d" dest
                        dests))
            | Some _ ->
                let packet = alloc ~dest:(Some dest) ~capacity:packet_size in
                Codec.decode_into ~off:2 ~len payload packet;
                arrived packet ~payload_bytes:len;
                Transport.Routed (dest, packet))
        | Wire.Eos, _ -> finish Transport.Eos
        | Wire.Err, len ->
            let site, message =
              Wire.parse_err (Bytes.sub (Wire.payload conn) 0 len)
            in
            finish (Transport.Failed (Transport.Remote_failure { site; message }))
        | (Wire.Hello | Wire.Cancel | Wire.Request | Wire.Resp_ok
          | Wire.Resp_err | Wire.Shutdown | Wire.Narrow), _ ->
            finish (corrupt "unexpected frame kind")
        | exception exn ->
            (* A dropped connection (EOF, ECONNRESET, a truncated frame):
               the stream ends in failure, which the feeder reports as the
               same single Query_failed a dead local producer causes. *)
            finish (Transport.Failed exn))
  in
  let fd = Wire.fd conn in
  let cancel () =
    (* Best effort, non-blocking-ish: tell the worker to stop, then tear
       the connection so a worker deep in a write unblocks with EPIPE.
       The fd stays open (only shut down) so a concurrently blocked pull
       wakes with EOF instead of racing a reused descriptor.  The cancel
       frame goes through a connection of its own: the pulling thread
       owns [conn]'s buffers, and a cancel is no fault site. *)
    (try Wire.write (Wire.conn fd) Wire.Cancel Bytes.empty with _ -> ());
    try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ()
  in
  let join () =
    if not (Atomic.exchange joined true) then begin
      waitpid_quiet pid;
      try Unix.close fd with _ -> ()
    end
  in
  { Transport.pull; cancel; join; narrow }

(* Bind the listener for the requested lane; returns it with the address
   string workers must dial and the path to unlink on teardown (if any).
   Every descriptor the launcher makes — this listener and each accepted
   connection — is close-on-exec, so a worker spawned now inherits none
   of them: not this launch's listener, and not the connections of a
   launch that is still streaming.
   Binds retry once on EADDRINUSE: temp-path and kernel-chosen-port
   collisions are already vanishingly rare, and one retry turns "rare"
   into "a genuine environment fault worth surfacing". *)
let bind_listener lane =
  let attempt () =
    match lane with
    | `Unix ->
        let path = Filename.temp_file "volcano_net_" ".sock" in
        Unix.unlink path;
        let listener =
          Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
        in
        (try Unix.bind listener (Unix.ADDR_UNIX path)
         with exn ->
           (try Unix.close listener with _ -> ());
           raise exn);
        (listener, path, Some path)
    | `Tcp ->
        let listener =
          Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0
        in
        (try
           Unix.setsockopt listener Unix.SO_REUSEADDR true;
           Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
         with exn ->
           (try Unix.close listener with _ -> ());
           raise exn);
        let port =
          match Unix.getsockname listener with
          | Unix.ADDR_INET (_, port) -> port
          | _ -> assert false
        in
        (listener, Printf.sprintf "tcp:127.0.0.1:%d" port, None)
  in
  try attempt ()
  with Unix.Unix_error (Unix.EADDRINUSE, _, _) -> attempt ()

let launch ?(faults = Injector.none) ?(lane = `Unix) ?repartition
    ?(obs = Obs.null) ~command ~workers ~task ~packet_size () =
  if workers < 1 then invalid_arg "Launcher.launch: workers must be positive";
  let listener, address, unlink_path = bind_listener lane in
  let pids = ref [] in
  let fds = ref [] in
  let cleanup () =
    List.iter (fun fd -> try Unix.close fd with _ -> ()) !fds;
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with _ -> ());
        waitpid_quiet pid)
      !pids;
    (try Unix.close listener with _ -> ());
    match unlink_path with
    | None -> ()
    | Some path -> ( try Unix.unlink path with _ -> ())
  in
  (* A worker killed mid-stream must surface as EPIPE from the cancel
     write (swallowed by [cancel]), not as SIGPIPE killing the consumer. *)
  Wire.ignore_sigpipe ();
  try
    Unix.listen listener workers;
    let argv = command ~socket:address in
    pids :=
      List.init workers (fun _ ->
          Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr);
    (* A non-blocking listener: an accept that would block waits on the
       poller, so a slow site start parks the consumer's fiber instead of
       holding its pool worker. *)
    Unix.set_nonblock listener;
    let accept_one shard =
      Injector.hit faults Volcano_fault.Net_connect;
      let due = Clock.now () +. accept_timeout_s in
      let rec accept () =
        match Unix.accept ~cloexec:true listener with
        | fd, _ -> fd
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            if Clock.now () >= due then
              failwith
                (Printf.sprintf "worker %d did not connect within %.0fs" shard
                   accept_timeout_s);
            Sched.wait_fd ~until:due `Read listener;
            accept ()
      in
      let fd = accept () in
      fds := fd :: !fds;
      (match lane with
      | `Tcp -> ( try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
      | `Unix -> ());
      let conn = Wire.conn ~faults fd in
      Wire.write conn Wire.Hello
        (Wire.hello
           ~repartition:(repartition <> None)
           ~task ~shard ~shards:workers ~packet_size ());
      (match repartition with
      | None -> ()
      | Some r -> Wire.write conn Wire.Repartition (Wire.repartition r));
      (* From here on the connection is read by a feeder fiber: a read
         that would block suspends the fiber instead of holding its pool
         worker. *)
      Unix.set_nonblock fd;
      conn
    in
    let conns = Array.init workers accept_one in
    (try Unix.close listener with _ -> ());
    (match unlink_path with
    | None -> ()
    | Some path -> ( try Unix.unlink path with _ -> ()));
    (* Shards are assigned in accept order, so source [rank] is not
       necessarily fed by process [pids.(rank)] — workers race to
       connect.  It does not matter which source reaps which pid: the
       ranks jointly cover every spawned process exactly once. *)
    let pids_arr = Array.of_list !pids in
    let stats =
      Array.init workers (fun _ ->
          { rows = Atomic.make 0; bytes = Atomic.make 0 })
    in
    {
      sources =
        Array.mapi
          (fun rank conn ->
            let rows_c = Obs.counter obs (Printf.sprintf "net.site%d.rows" rank)
            and bytes_c =
              Obs.counter obs (Printf.sprintf "net.site%d.bytes" rank)
            in
            source_of ~packet_size
              ~dests:(Option.map (fun r -> r.Wire.dests) repartition)
              ~rank ~stats:stats.(rank) ~rows_c ~bytes_c conn pids_arr.(rank))
          conns;
      pids = pids_arr;
      address;
      stats;
    }
  with exn ->
    cleanup ();
    raise exn
