(* conclint-fixture expect: none *)
(* The shape of the PR-5 fix: the refcount mutex only elects a first
   opener; the suspending work (consumer setup) happens after the lock
   is released, and racers wait on a write-once cell with nothing held. *)

type stream = {
  lock : Mutex.t;
  mutable opened : int;
  mutable port : int option;
  group : int;
  ready : unit Sched.Ivar.t;
}

let setup_consumer s =
  let port = Group.lookup_port s.group ~key:0 in
  s.port <- Some port

let ensure_open s =
  Mutex.lock s.lock;
  s.opened <- s.opened + 1;
  let first = s.opened = 1 in
  Mutex.unlock s.lock;
  if first then begin
    setup_consumer s;
    ignore (Sched.Ivar.fill s.ready () : bool)
  end
  else Sched.Ivar.read s.ready
