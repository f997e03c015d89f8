(** Worker-process launcher for remote exchange.

    [launch] finds a group of worker processes — sites — hands each a
    shard of the task in a [Hello] frame, and wraps each connection as a
    {!Volcano.Port.Transport.source} — the [connect] argument of
    [Exchange.remote_iterator].

    [command ~socket] must render an argv that starts a worker which
    connects to [socket] and speaks the {!Worker} protocol (typically the
    current executable with a worker-mode argument, so parent and workers
    share one binary and therefore one task vocabulary).  [socket] is a
    Unix-domain path on the default [`Unix] lane, or ["tcp:127.0.0.1:PORT"]
    on the [`Tcp] lane — {!Worker.run} dials either form.

    {b Site lifecycle.}  A worker serves one Hello after another on its
    connection (see {!Worker.run}), so a site outlives its query.  The
    launcher keeps one idle set per process, keyed by lane and argv
    template ([command ~socket:""]).  A source whose stream ended in
    [Eos] and was never cancelled hands its connection and process back
    to that set at [join]; every other site — its query failed, was
    closed early or cancelled, or hit a wire fault — is torn down and
    reaped at [join], never reused.  [launch] takes idle sites first and
    spawns (binding a listener) only for the shortfall, one site at a
    time.

    {b Shard affinity.}  An idle site records the [(task, shard, shards)]
    of the assignment its last stream served; its worker still holds that
    load (see {!Worker.run}).  For each shard [launch] first takes an
    idle site whose record matches the shard it assigns, then any idle
    site, then spawns — so a query that repeats the last one hands every
    site the shard it already holds, and no site loads again. *)

type site_stats = { rows : int Atomic.t; bytes : int Atomic.t }

type launched = {
  sources : Volcano.Port.Transport.source array;
  pids : int array;
      (** worker process ids in shard order: [pids.(k)] is the process
          that serves [sources.(k)], spawned or reused *)
  address : string;
      (** the address site 0 dialed when it was spawned: a Unix-domain
          path, or ["tcp:127.0.0.1:PORT"] on the TCP lane *)
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
(** Assigns [workers] sites, blocking until each has its Hello.  For
    each shard in turn it takes an idle site of this lane and argv
    template, or spawns one process, records its pid, and accepts its
    connection (30s accept timeout) before the next: the pid is the
    process behind that connection.  An idle site is checked first — a
    site that died while idle is reaped and replaced — and a reused site
    whose Hello cannot be written is replaced too.  The sink's counters
    [net.sites_spawned] and [net.sites_reused] count both kinds, and
    [net.sites_kept] counts the reused sites handed the shard they hold.

    On any setup failure — a worker that never connects, an injected
    [Net_connect] fault (hit once per shard assignment) — every site the
    launch took or spawned is killed and reaped, and the exception
    propagates (surfacing as [Query_failed] at site ["net-connect"] from
    the exchange).  [faults] is threaded into every frame read/write of
    the returned sources.  After its handshake each connection is
    non-blocking, so a pull that finds no whole frame waits through
    {!Volcano_sched.Sched.wait_fd}: a pool fiber pulling a stalled site
    gives its worker back.

    [lane] picks the transport ([`Unix] default).  The TCP listener binds
    loopback port 0 and reads the kernel's choice back, retrying the bind
    once on [EADDRINUSE], so concurrent launchers never race for a port.

    [repartition] turns the edge into a repartitioning edge: every Hello
    is flagged and followed by the partition function, and workers answer
    with routed packets ([Transport.Routed]) instead of mergeable data. *)

val release_idle : unit -> unit
(** Closes every idle connection, then reaps its process (the worker
    reads end of file and exits).  Runs at exit, so no idle worker
    outlives the process that launched it. *)
