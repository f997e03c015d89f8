(** Worker-process launcher for remote exchange.

    [launch] spawns a group of worker processes, listens on a private
    socket for them to connect back, assigns shards in accept order via
    [Hello] frames, and wraps each connection as a
    {!Volcano.Port.Transport.source} — the [connect] argument of
    [Exchange.remote_iterator].

    [command ~socket] must render an argv that starts a worker which
    connects to [socket] and speaks the {!Worker} protocol (typically the
    current executable with a worker-mode argument, so parent and workers
    share one binary and therefore one task vocabulary).  [socket] is a
    Unix-domain path on the default [`Unix] lane, or ["tcp:127.0.0.1:PORT"]
    on the [`Tcp] lane — {!Worker.run} dials either form. *)

type site_stats = { rows : int Atomic.t; bytes : int Atomic.t }

type launched = {
  sources : Volcano.Port.Transport.source array;
  pids : int array;  (** worker process ids (spawn order, not shard order) *)
  address : string;
      (** the address workers dialed: a Unix-domain path, or
          ["tcp:127.0.0.1:PORT"] on the TCP lane *)
  stats : site_stats array;
      (** per-site arrival totals (records and payload bytes), indexed by
          shard; mirrored into the sink as [net.site<k>.rows] and
          [net.site<k>.bytes] *)
}

val launch :
  ?faults:Volcano_fault.Injector.t ->
  ?lane:[ `Unix | `Tcp ] ->
  ?repartition:Wire.repartition ->
  ?obs:Volcano_obs.Obs.t ->
  command:(socket:string -> string array) ->
  workers:int ->
  task:string ->
  packet_size:int ->
  unit ->
  launched
(** Spawns [workers] processes and blocks until all have connected (30s
    accept timeout per worker).  On any setup failure — a worker that
    never connects, an injected [Net_connect] fault — every spawned
    process is killed and reaped, and the exception propagates (surfacing
    as [Query_failed] at site ["net-connect"] from the exchange).
    [faults] is threaded into every frame read/write of the returned
    sources.  After its handshake each connection is non-blocking, so a
    pull that finds no whole frame waits through
    {!Volcano_sched.Sched.wait_fd}: a pool fiber pulling a stalled site
    gives its worker back.

    [lane] picks the transport ([`Unix] default).  The TCP listener binds
    loopback port 0 and reads the kernel's choice back, retrying the bind
    once on [EADDRINUSE], so concurrent launchers never race for a port.

    [repartition] turns the edge into a repartitioning edge: every Hello
    is flagged and followed by the partition function, and workers answer
    with routed packets ([Transport.Routed]) instead of mergeable data. *)
