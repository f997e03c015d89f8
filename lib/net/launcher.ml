module Injector = Volcano_fault.Injector
module Transport = Volcano.Port.Transport
module Obs = Volcano_obs.Obs
module Clock = Volcano_util.Clock
module Sched = Volcano_sched.Sched

(* Launch a remote producer group: find [workers] worker processes —
   idle sites first, fresh ones for the shortfall — hand each a shard of
   the task over its connection, and expose each connection as a
   {!Volcano.Port.Transport.source} for [Exchange.remote_iterator] to
   consume.

   The parent is the listener (workers connect back to it), so a worker
   that never comes up is detected here as an accept timeout, not as a
   hang.  The Hello frame tells each worker which shard of which task it
   owns, so the worker binary needs no per-shard command line and one
   [command] template spawns the whole group — and a site that finished
   one query can take the next query's Hello.

   Two lanes carry the same framing: [`Unix] (a temp-path Unix-domain
   socket, the default) and [`Tcp] (loopback, port chosen by the kernel —
   bind port 0 and read it back, so concurrent launchers never race for a
   fixed port). *)

type site_stats = { rows : int Atomic.t; bytes : int Atomic.t }

type launched = {
  sources : Transport.source array;
  pids : int array;  (** worker process ids: [pids.(k)] serves source [k] *)
  address : string;
      (** the address site 0 dialed when it was spawned: a Unix-domain
          path, or ["tcp:127.0.0.1:PORT"] on the TCP lane *)
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

(* What a worker keeps between queries: the [(task, shard, shards)] of
   its last assignment (see {!Worker.run}). *)
type assignment = string * int * int

(* A site: a worker process and its connection to this process. *)
type site = {
  fd : Unix.file_descr;
  pid : int;
  dialed : string;  (** the address the process dialed when it was spawned *)
  holds : assignment option;
      (** its last clean assignment, which the worker still holds; [None]
          until a stream of it ends in [Eos] *)
}

(* Close the connection, then wait for the process: a worker reads end
   of file where it waits for a Hello (or [EPIPE] where it writes), and
   exits. *)
let retire site =
  (try Unix.close site.fd with _ -> ());
  waitpid_quiet site.pid

let kill_pid pid =
  (try Unix.kill pid Sys.sigkill with _ -> ());
  waitpid_quiet pid

(* A site that died while idle, or that a failed launch holds. *)
let kill site =
  (try Unix.close site.fd with _ -> ());
  kill_pid site.pid

(* A source's life: [Live] until the consumer cancels it or joins it;
   whichever comes first decides, so a cancel that arrives after the
   join never reaches a site that went back to the idle set. *)
type state = Live | Cancelled | Joined

(* [dests] is the consumer count a repartitioning edge shipped to its
   workers ([None] on a merge edge): a routed frame must name one of
   them. *)
let source_of ~packet_size ~dests ~rank ~stats ~rows_c ~bytes_c ~release site
    conn =
  let terminal : Transport.event option ref = ref None in
  let state = Atomic.make Live in
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
  let fd = site.fd in
  let cancel () =
    (* Best effort, non-blocking-ish: tell the worker to stop, then tear
       the connection so a worker deep in a write unblocks with EPIPE.
       The fd stays open (only shut down) so a concurrently blocked pull
       wakes with EOF instead of racing a reused descriptor.  The cancel
       frame goes through a connection of its own: the pulling thread
       owns [conn]'s buffers, and a cancel is no fault site.  A source
       already joined is not touched: its site may serve another query
       by now. *)
    if Atomic.compare_and_set state Live Cancelled then begin
      (try Wire.write (Wire.conn fd) Wire.Cancel Bytes.empty with _ -> ());
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ()
    end
  in
  (* A stream that ended in [Eos] and was never cancelled leaves its
     site waiting for the next Hello: it goes back to the idle set.  Any
     other site is retired.  The feeders are joined by now, so no pull
     races the close. *)
  let join () =
    let live = Atomic.compare_and_set state Live Joined in
    match !terminal with
    | Some Transport.Eos when live -> release site
    | _ ->
        if live || Atomic.compare_and_set state Cancelled Joined then
          retire site
  in
  { Transport.pull; cancel; join; narrow }

(* Bind the listener for the requested lane; returns it with the address
   string workers must dial and the path to unlink on teardown (if any).
   Every descriptor the launcher makes — this listener and each accepted
   connection — is close-on-exec, so a worker spawned now inherits none
   of them: not this launch's listener, not the connections of a launch
   that is still streaming, and not an idle site's.
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

(* --- the idle set --------------------------------------------------------

   A site is a worker process and its connection to this process.  A
   site whose stream ended in [Eos], and was never cancelled, waits for
   its next Hello; its source's [join] hands it back here, recording the
   assignment it just served, instead of reaping it, and [launch] takes
   it before it spawns.  Sites are kept per lane and argv template
   ([command ~socket:""]), so a launch only ever reuses a process it
   would have spawned itself.  Within a set, a shard goes to the site
   that holds it when there is one: the worker then skips its load. *)

let idle : ([ `Unix | `Tcp ] * string array, site list) Hashtbl.t =
  Hashtbl.create 4

let idle_lock = Mutex.create ()

let with_idle f =
  Mutex.lock idle_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock idle_lock) f

let take_idle key assignment =
  with_idle (fun () ->
      match Hashtbl.find_opt idle key with
      | None | Some [] -> None
      | Some (first :: _ as sites) ->
          let site =
            Option.value ~default:first
              (List.find_opt (fun site -> site.holds = Some assignment) sites)
          in
          Hashtbl.replace idle key (List.filter (( != ) site) sites);
          Some site)

let put_idle key site =
  with_idle (fun () ->
      let sites = Option.value ~default:[] (Hashtbl.find_opt idle key) in
      Hashtbl.replace idle key (site :: sites))

let release_idle () =
  let sites =
    with_idle (fun () ->
        let all = Hashtbl.fold (fun _ sites acc -> sites @ acc) idle [] in
        Hashtbl.reset idle;
        all)
  in
  List.iter retire sites

let () = at_exit release_idle

(* An idle site never writes, so a one-byte read on its non-blocking
   connection that returns end of file or data means the site is gone;
   only [EAGAIN] says it still waits for a Hello. *)
let alive site =
  match Unix.read site.fd (Bytes.create 1) 0 1 with
  | _ -> false
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
  | exception Unix.Unix_error _ -> false

let launch ?(faults = Injector.none) ?(lane = `Unix) ?repartition
    ?(obs = Obs.null) ~command ~workers ~task ~packet_size () =
  if workers < 1 then invalid_arg "Launcher.launch: workers must be positive";
  let key = (lane, command ~socket:"") in
  let spawned_c = Obs.counter obs "net.sites_spawned"
  and reused_c = Obs.counter obs "net.sites_reused"
  and kept_c = Obs.counter obs "net.sites_kept" in
  (* Bound on the first spawn only: a launch served by idle sites binds
     nothing. *)
  let listener = ref None in
  let close_listener () =
    Option.iter
      (fun (fd, _, unlink_path) ->
        (try Unix.close fd with _ -> ());
        Option.iter (fun path -> try Unix.unlink path with _ -> ()) unlink_path)
      !listener;
    listener := None
  in
  (* Every site this launch took or spawned: on a failed launch each is
     killed and reaped. *)
  let held = ref [] in
  let hold site =
    held := site :: !held;
    site
  in
  let cleanup () =
    List.iter kill !held;
    close_listener ()
  in
  (* Spawn one site and accept its connection before anything else
     connects, so the pid is the process behind the connection. *)
  let spawn shard =
    let fd, address =
      match !listener with
      | Some (fd, address, _) -> (fd, address)
      | None ->
          let fd, address, unlink_path = bind_listener lane in
          listener := Some (fd, address, unlink_path);
          Unix.listen fd 1;
          (* A non-blocking listener: an accept that would block waits
             on the poller, so a slow site start parks the consumer's
             fiber instead of holding its pool worker. *)
          Unix.set_nonblock fd;
          (fd, address)
    in
    let argv = command ~socket:address in
    let pid =
      Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
    in
    Obs.Counter.incr spawned_c;
    let due = Clock.now () +. accept_timeout_s in
    let rec accept () =
      match Unix.accept ~cloexec:true fd with
      | conn, _ -> conn
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          if Clock.now () >= due then
            failwith
              (Printf.sprintf "worker %d did not connect within %.0fs" shard
                 accept_timeout_s);
          Sched.wait_fd ~until:due `Read fd;
          accept ()
    in
    match accept () with
    | exception exn ->
        kill_pid pid;
        raise exn
    | conn ->
        (match lane with
        | `Tcp -> ( try Unix.setsockopt conn Unix.TCP_NODELAY true with _ -> ())
        | `Unix -> ());
        hold { fd = conn; pid; dialed = address; holds = None }
  in
  (* An idle site that still waits for a Hello — the one that holds
     this shard if there is one — else a fresh one. *)
  let rec take shard =
    match take_idle key (task, shard, workers) with
    | None -> (spawn shard, false)
    | Some site when alive site -> (hold site, true)
    | Some site ->
        kill site;
        take shard
  in
  let hello conn shard =
    Wire.write conn Wire.Hello
      (Wire.hello
         ~repartition:(repartition <> None)
         ~task ~shard ~shards:workers ~packet_size ());
    match repartition with
    | None -> ()
    | Some r -> Wire.write conn Wire.Repartition (Wire.repartition r)
  in
  let rec assign shard =
    let site, reused = take shard in
    let conn = Wire.conn ~faults site.fd in
    match hello conn shard with
    | () ->
        if reused then Obs.Counter.incr reused_c;
        if site.holds = Some (task, shard, workers) then
          Obs.Counter.incr kept_c;
        (* From here on the connection is read by a feeder fiber: a read
           that would block suspends the fiber instead of holding its
           pool worker. *)
        Unix.set_nonblock site.fd;
        (site, conn)
    | exception Unix.Unix_error _ when reused ->
        (* A reused site that died after the check: replace it. *)
        held := List.filter (( != ) site) !held;
        kill site;
        assign shard
  in
  (* A worker killed mid-stream must surface as EPIPE from the cancel
     write (swallowed by [cancel]), not as SIGPIPE killing the consumer. *)
  Wire.ignore_sigpipe ();
  try
    let assigned =
      Array.init workers (fun shard ->
          Injector.hit faults Volcano_fault.Net_connect;
          assign shard)
    in
    close_listener ();
    let stats =
      Array.init workers (fun _ ->
          { rows = Atomic.make 0; bytes = Atomic.make 0 })
    in
    {
      sources =
        Array.mapi
          (fun rank (site, conn) ->
            let rows_c = Obs.counter obs (Printf.sprintf "net.site%d.rows" rank)
            and bytes_c =
              Obs.counter obs (Printf.sprintf "net.site%d.bytes" rank)
            in
            source_of ~packet_size
              ~dests:(Option.map (fun r -> r.Wire.dests) repartition)
              ~rank ~stats:stats.(rank) ~rows_c ~bytes_c
              ~release:(fun site ->
                put_idle key { site with holds = Some (task, rank, workers) })
              site conn)
          assigned;
      pids = Array.map (fun (site, _) -> site.pid) assigned;
      address = (fst assigned.(0)).dialed;
      stats;
    }
  with exn ->
    cleanup ();
    raise exn
