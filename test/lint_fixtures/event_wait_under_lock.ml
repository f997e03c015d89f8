(* conclint-fixture expect: CL001 *)
(* Sched.Ivar.read is a suspension point: a pool fiber waiting here
   unwinds off its worker with the unrelated mutex still owned by that
   worker's thread, and every later locker deadlocks against it.  Off
   the pool the caller blocks instead, keeping the mutex pinned for the
   whole wait. *)

type t = { lock : Mutex.t; ready : unit Sched.Ivar.t; mutable pinned : int }

let pin t =
  Mutex.lock t.lock;
  Sched.Ivar.read t.ready;
  t.pinned <- t.pinned + 1;
  Mutex.unlock t.lock
