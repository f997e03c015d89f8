(* conclint-fixture expect: CL001 *)
(* Sched.Event.wait is a suspension point: a pool fiber waiting here
   unwinds off its worker with the unrelated mutex still owned by that
   worker's thread, and every later locker deadlocks against it.  Off
   the pool the caller blocks instead, keeping the mutex pinned for the
   whole wait. *)

type t = { lock : Mutex.t; ready : Sched.Event.t; mutable pinned : int }

let pin t =
  Mutex.lock t.lock;
  Sched.Event.wait t.ready;
  t.pinned <- t.pinned + 1;
  Mutex.unlock t.lock
