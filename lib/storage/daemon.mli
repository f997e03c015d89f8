(** Read-ahead / write-behind daemons (paper, section 4.5).

    "One or more copies of this daemon process are forked when the buffer
    manager is initialized, and accept work requests on a queue and
    semaphore."  Requests are FLUSH (write a cluster if resident and dirty)
    and READAHEAD (read a cluster onto the LRU chain).  Where the paper
    forks daemon processes, each request here is a fire-and-forget task on
    the scheduler's pool, so an idle daemon holds no domain. *)

type request =
  | Flush of Device.t * int
  | Read_ahead of Device.t * int

type t

val start : ?sched:Volcano_sched.Sched.t -> buffer:Bufpool.t -> unit -> t
(** A daemon whose requests run as tasks on [sched] (default
    {!Volcano_sched.Sched.default}). *)

val submit : t -> request -> unit
(** Fork a task for the request; returns immediately.
    @raise Invalid_argument after {!stop}. *)

val drain : t -> unit
(** Block until every submitted request has been performed. *)

val stop : t -> unit
(** Refuse further requests and {!drain}.  Idempotent. *)

val flushes_done : t -> int
val reads_done : t -> int
