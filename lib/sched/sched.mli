(** The pooled domain scheduler.

    The paper forks a fresh process per producer (section 4.1); the first
    port of that idea spawned an OCaml domain per producer, which caps out
    quickly — domains are an OS-level resource whose creation cost
    dominates short queries.  This module replaces spawn-per-producer with
    a fixed pool of worker domains (sized to the host by default) running
    tasks from per-worker FIFO run queues with work stealing.

    {2 Task model}

    A task is a closure.  [fork] enqueues it and returns a handle; [await]
    blocks until it completes and returns its result (or the exception it
    died with); the handle is the task's result cell ({!Ivar}).  Tasks run
    as {e fibers} under an effect handler: a task that must wait for
    another task's progress — a full flow-control ring or an empty port
    ({!Slot}), an unpublished port or an unfilled cell ({!Ivar}) — waits
    through {!suspend} and gives its worker back to the pool instead of
    occupying a domain.  The waker it registers is resumed on whatever
    worker is free, so a pool of [W] workers executes arbitrarily deep
    producer trees without deadlock: blocking edges between tasks are
    suspension points, never parked domains.

    A wait on a non-blocking socket is task-shaped too ({!wait_fd}).
    Waits that are not task-shaped (page I/O, buffer-pool frame waits)
    still block the worker; the default pool size keeps a floor of 2
    workers so such a wait cannot hold the only worker on a 1-core host.
    It keeps no more than that: each extra domain takes part in every
    stop-the-world minor GC and futex wake, so domains past the core
    count slow a query down instead of overlapping its waits.  A pool
    wider than a plan's task count gives every producer a domain of its
    own, the paper's fork-per-producer regime. *)

type t

val create : ?workers:int -> unit -> t
(** A new pool of [workers] domains (default: see {!default_workers}).
    Raises [Invalid_argument] if [workers < 1]. *)

val default : unit -> t
(** The process-wide pool of {!default_workers} domains, created on first
    use. *)

val default_workers : unit -> int
(** [max 2 (Domain.recommended_domain_count ())]: one domain per core,
    and at least 2 so a non-suspending wait (I/O, buffer pool) cannot
    hold a single-core host's only worker.  Measured on a 2-core host,
    4 allocating domains ran 6.6x slower than ideal, and the degree-3
    [olap_join] plan cost about 75 ms of CPU per query on a 4-worker
    pool against 50-64 ms on a 2-worker one. *)

val workers : t -> int
(** Pool size. *)

val shutdown : t -> unit
(** Stop and join the pool's workers.  Call only when quiescent (no live
    or queued tasks); the process-wide {!default} pool is normally left
    running.  No-op on a pool already shut down. *)

(** {2 Write-once cells} *)

(** A cell that is filled once and read by any number of waiters: the
    engine's one-shot wait.  A task's result, a runtime job's result and
    its drain, a group's published port and a merge network's shared
    setup are each one.  It takes no lock: one atomic holds either the
    waiters or the value.  A wait that recurs on one side, such as a
    port's full ring or empty sink, parks on a {!Slot} instead. *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  val fill : 'a t -> 'a -> bool
  (** [fill c v] stores [v] and wakes every waiting {!read}, unless [c]
      already holds a value: the first fill wins and returns [true],
      every later one changes nothing and returns [false].  It never
      waits, and may be called from any domain or thread. *)

  val peek : 'a t -> 'a option
  (** [peek c] is the value, if [c] holds one.  Never waits. *)

  val read : 'a t -> 'a
  (** [read c] is the value, once [c] holds one (a {!suspend} point). *)
end

(** {2 Park slots} *)

(** A place where one waiter parks until a condition holds: the
    engine's recurring wait, where a port's producer waits on a full
    ring and its consumer on empty lanes.  It takes no lock: one atomic
    holds the parked waker or nothing.

    {b One waiter at a time}: a second {!park} on the same slot would
    overwrite the first's waker and strand it.  The port keeps the rule
    with one producer per lane and one consumer per sink.  Anyone may
    {!wake}. *)
module Slot : sig
  type t

  val create : unit -> t

  val park : t -> ready:(unit -> bool) -> unit
  (** [park s ~ready] stores the caller's waker in [s] and re-checks
      [ready]: if it holds, [park] takes the waker back and returns,
      otherwise it waits for a {!wake} (a {!suspend} point).  Call it in
      a loop over the condition; a signaler makes [ready] true before it
      wakes. *)

  val wake : t -> unit
  (** [wake s] wakes the waiter parked on [s], if any — one atomic read
      when there is none.  Never waits. *)
end

(** {2 Tasks} *)

type 'a task

val fork : t -> (unit -> 'a) -> 'a task
(** Submit a closure; returns immediately. *)

val await : 'a task -> ('a, exn) result
(** Wait for the task (a {!suspend} point).  May be called more than
    once. *)

(** {2 Suspension} *)

val suspend : ((unit -> unit) -> bool) -> unit
(** [suspend register] blocks the caller until woken — the engine's one
    blocking primitive for task-shaped waits.  It calls [register wake];
    [register] must store [wake] where the awaited event's signaling path
    will find it and return [true], or return [false] if the event already
    happened ([suspend] then returns at once).  Inside a pool fiber the
    fiber yields its worker and [wake] re-enqueues it; anywhere else the
    calling thread blocks on a one-shot gate made for this wait and [wake]
    opens it.  Either way [wake] is idempotent and may be called from any
    domain, so registrations may be left behind in wake lists; spurious
    wakes are harmless provided the caller re-checks its condition in a
    loop.  Code outside this module waits through the three waits built
    on it: {!Ivar.read}, {!Slot.park} and {!wait_fd}. *)

val wait_fd : ?until:float -> [ `Read | `Write ] -> Unix.file_descr -> unit
(** [wait_fd dir fd] waits until [fd] is readable ([`Read]) or writable
    ([`Write]), or until the {!Volcano_util.Clock.now} time [until] has
    passed — a {!suspend} point.  Meant for a non-blocking descriptor
    whose call just failed with [EAGAIN]: retry the call in a loop, since
    a wake may be spurious.  One poller domain per process serves every
    wait, started by the first, and watches them with [poll(2)], so any
    descriptor number will do.  An error, a hang-up or a descriptor
    closed under the wait wakes this wait alone: its retried call then
    fails or reads end of file. *)

val fd_ready : [ `Read | `Write ] -> Unix.file_descr -> bool
(** [fd_ready dir fd] is whether a call on [fd] in direction [dir] would
    not block now: [fd] is ready, at end of file, or failed.  A poll with
    a zero timeout; it never waits. *)

type timer

val at : float -> (unit -> unit) -> timer
(** [at due fire] runs [fire ()] on the poller once
    {!Volcano_util.Clock.now} reaches [due]; [fire] must not block, and
    its exceptions are dropped. *)

val cancel_timer : timer -> unit
(** [fire] will not run unless it already has.  Idempotent. *)

(** {2 Introspection} *)

type stats = {
  pool_workers : int;
  submitted : int;  (** tasks forked *)
  completed : int;  (** tasks whose fiber ran to completion *)
  stolen : int;  (** tasks taken from another worker's queue *)
  suspensions : int;  (** times a fiber yielded its worker *)
  resumptions : int;  (** suspended fibers re-enqueued *)
  peak_queue_depth : int;  (** deepest any single run queue has been *)
}

val stats : t -> stats

val live_tasks : t -> int
(** [submitted - completed]: forked tasks not yet run to completion. *)

val suspended_tasks : t -> int
(** [suspensions - resumptions]: fibers currently parked off-worker. *)

val task_latency_percentile : t -> float -> float
(** Percentile (p in [0, 1]) of fork-to-start task latencies, seconds,
    over a bounded reservoir of all tasks so far. *)

val register_obs : ?since:stats -> t -> Volcano_obs.Obs.t -> unit
(** Publish scheduler metrics into an observability sink: counters
    [sched.tasks]/[sched.steals]/[sched.suspensions], gauges
    [sched.workers]/[sched.peak_queue_depth], and the task-latency
    histogram [sched.task_latency_s] (p50/p95 of the latency reservoir).
    With [since] (an earlier {!stats} snapshot), counters report the
    delta, scoping the report to one run on a long-lived pool.
    Registering a disabled sink detaches the previous histogram. *)

val assert_quiescent : ?what:string -> t -> unit
(** Raise [Failure] unless every forked task has completed and no fiber
    is suspended — the scheduler analogue of the exchange domain-counter
    teardown assertion.  Allows a short grace period for in-flight
    completion bookkeeping to settle.  Call from test teardowns. *)
