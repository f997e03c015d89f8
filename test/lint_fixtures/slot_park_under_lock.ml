(* conclint-fixture expect: CL001 *)
(* Sched.Slot.park is a suspension point: a consumer that parks on its
   slot while holding an unrelated mutex unwinds off its pool worker
   with the mutex still owned by that worker's thread, so the producer
   that would wake it deadlocks on the lock instead.  Off the pool the
   caller blocks with the mutex pinned for the whole wait. *)

type t = {
  lock : Mutex.t;
  parked : Sched.Slot.t;
  items : int Queue.t;
  mutable taken : int;
}

let take t =
  Mutex.lock t.lock;
  while Queue.is_empty t.items do
    Sched.Slot.park t.parked ~ready:(fun () -> not (Queue.is_empty t.items))
  done;
  t.taken <- t.taken + Queue.pop t.items;
  Mutex.unlock t.lock
