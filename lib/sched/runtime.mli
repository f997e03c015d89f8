(** The multi-query runtime: an admission gate over a scheduler.

    A {!t} runs submitted jobs (arbitrary closures — in practice compiled
    query plans) on its scheduler, with at most [max_concurrent] executing
    at once; excess submissions wait in FIFO order.  Each job supports
    cancellation and an optional deadline, both delivered through the
    job's [on_cancel] hook — for queries, the hook poisons the plan's root
    cancellation scope, riding the exchange poison/cancel chain, so a
    cancelled query surfaces as [Query_failed] at its consumer.

    Both waits are {!Sched.Ivar} reads: a job's result is a write-once
    cell, filled after the job has given back its slot, and {!close}
    reads one more cell, filled once the runtime is closed and every job's
    result is in. *)

type t

val create : ?max_concurrent:int -> Sched.t -> t
(** Default [max_concurrent]: the scheduler's worker count.  Raises
    [Invalid_argument] if [< 1]. *)

val sched : t -> Sched.t
val max_concurrent : t -> int

exception Cancelled
(** The reason passed to [on_cancel] (and recorded as the job's error) by
    {!cancel}. *)

exception Deadline_exceeded
(** Likewise for a job whose [deadline_s] expired. *)

type 'a job

type status =
  | Queued  (** admitted, waiting for a slot *)
  | Running
  | Finished  (** completed normally *)
  | Failed  (** its closure raised *)
  | Aborted  (** cancelled or deadline-expired *)

val submit :
  t ->
  ?deadline_s:float ->
  ?label:string ->
  ?on_cancel:(exn -> unit) ->
  (unit -> 'a) ->
  'a job
(** Enqueue a job.  [on_cancel reason] is invoked (at most once) when the
    job is cancelled {e while running}; a job cancelled while still queued
    never runs and never sees the hook.  [deadline_s] is relative to
    submission; expiry cancels with {!Deadline_exceeded}.  Raises
    [Invalid_argument] after {!close}. *)

val await : 'a job -> ('a, exn) result
(** Wait for the job's terminal state (a {!Sched.suspend} point).  A job
    cancelled while queued yields [Error Cancelled] (or
    [Error Deadline_exceeded]) without running. *)

val cancel : 'a job -> unit
(** Request cancellation with reason {!Cancelled}.  No-op on a job
    already in a terminal state.  Note the job's own failure wins the
    race: a running job that raises before observing the cancellation
    records what it raised. *)

val status : 'a job -> status
val label : 'a job -> string

val running : t -> int
(** Jobs currently holding an execution slot. *)

val queued : t -> int
(** Jobs admitted but not yet started. *)

val close : t -> unit
(** Drain: wait until every submitted job reaches a terminal state; a
    terminal job has dropped its deadline, so none is left pending.
    Further {!submit}s raise; {!await} on finished jobs keeps working.
    Idempotent. *)
