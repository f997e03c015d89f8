module Sched = Volcano_sched.Sched

type request =
  | Flush of Device.t * int
  | Read_ahead of Device.t * int

(* Each request is a fire-and-forget task on the scheduler's pool, so an
   idle daemon holds no domain.  [busy] counts requests submitted and not
   yet performed; [drain] and [stop] wait for it to reach zero. *)
type t = {
  buffer : Bufpool.t;
  sched : Sched.t;
  lock : Mutex.t;
  idle : Condition.t;
  mutable busy : int;
  mutable stopped : bool;
  flushes : int Atomic.t;
  reads : int Atomic.t;
}

let perform t request =
  match request with
  | Flush (dev, page) ->
      if Bufpool.flush_page t.buffer dev page then Atomic.incr t.flushes
  | Read_ahead (dev, page) ->
      Bufpool.prefetch t.buffer dev page;
      Atomic.incr t.reads

let retire t =
  Mutex.lock t.lock;
  t.busy <- t.busy - 1;
  if t.busy = 0 then Condition.broadcast t.idle;
  Mutex.unlock t.lock

let start ?(sched = Sched.default ()) ~buffer () =
  {
    buffer;
    sched;
    lock = Mutex.create ();
    idle = Condition.create ();
    busy = 0;
    stopped = false;
    flushes = Atomic.make 0;
    reads = Atomic.make 0;
  }

let submit t request =
  Mutex.lock t.lock;
  if t.stopped then begin
    Mutex.unlock t.lock;
    invalid_arg "Daemon.submit: daemon stopped"
  end;
  t.busy <- t.busy + 1;
  Mutex.unlock t.lock;
  ignore
    (Sched.fork t.sched (fun () ->
         Fun.protect
           ~finally:(fun () -> retire t)
           (fun () -> perform t request))
      : unit Sched.task)

let drain t =
  Mutex.lock t.lock;
  while t.busy > 0 do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock

let stop t =
  Mutex.lock t.lock;
  let already = t.stopped in
  t.stopped <- true;
  Mutex.unlock t.lock;
  (* In-flight tasks belong to the pool; wait them out so stopped means
     quiescent. *)
  if not already then drain t

let flushes_done t = Atomic.get t.flushes
let reads_done t = Atomic.get t.reads
