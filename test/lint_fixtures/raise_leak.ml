(* conclint-fixture expect: CL001 *)
(* An early raise does not end the lexical lock region: the exception
   leaks the mutex, and the suspend after the conditional raise is
   still inside the held region. *)

type t = { lock : Mutex.t; mutable budget : int; done_ : unit Sched.Ivar.t }

let consume t n =
  Mutex.lock t.lock;
  if n < 0 then invalid_arg "consume: negative";
  t.budget <- t.budget - n;
  Sched.Ivar.read t.done_;
  Mutex.unlock t.lock
