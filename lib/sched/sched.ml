module Clock = Volcano_util.Clock
module Statx = Volcano_util.Stats
module Obs = Volcano_obs.Obs

(* A task is a closure; a worker is a domain looping over jobs.  A job is
   either "start this task's fiber" or "resume this suspended fiber" —
   both are plain [unit -> unit] thunks by the time they reach a queue.

   Fibers run under a deep effect handler.  Performing [Suspend] unwinds
   the fiber off its worker; the handler hands an idempotent wake thunk to
   the suspender's [register] callback, which parks it wherever the
   awaited event will fire (a park slot, a poller slot, a cell's waker
   list).  Waking re-enqueues the continuation as an ordinary job, so
   the fiber resumes on whichever worker is free — the deep handler
   travels with the continuation, so later suspensions of the same fiber
   are handled identically.

   [suspend] is the engine's one blocking primitive.  Off the pool (the
   main thread, a client's own threads) there is no fiber to unwind, so
   the caller blocks on a one-shot gate made for that one wait, and the
   gate's opener is the waker [register] stores.
   The gate is per wait, not per domain: systhreads share their domain,
   and a domain-wide gate would let one thread's waker release another
   thread's wait.  A wait for a file descriptor or a due time is one more
   [suspend], woken by the process's poller domain ([wait_fd] below). *)

type job = unit -> unit

type t = {
  p_size : int;
  queues : job Queue.t array; (* one FIFO run queue per worker *)
  locks : Mutex.t array;
  idle_lock : Mutex.t;
  idle : Condition.t; (* workers with nothing to run park here *)
  mutable idlers : int;
  mutable stopping : bool;
  pending : int Atomic.t; (* jobs enqueued and not yet dequeued *)
  rr : int Atomic.t; (* queue choice for off-pool submitters *)
  submitted : int Atomic.t;
  completed : int Atomic.t;
  stolen : int Atomic.t;
  suspensions : int Atomic.t;
  resumptions : int Atomic.t;
  peak_queue : int Atomic.t;
  lat_lock : Mutex.t;
  lat : Statx.t; (* fork-to-start latency reservoir *)
  mutable lat_sink : Obs.Histogram.t option; (* under [lat_lock] *)
  mutable domains : unit Domain.t array;
}

type _ Effect.t += Suspend : ((unit -> unit) -> bool) -> unit Effect.t

(* Which pool (and which of its workers) the calling domain belongs to. *)
let dls_key : (t * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* The off-pool gate: [wake] may run any number of times from any
   domain; the first opens the gate, the rest find it open. *)
let block register =
  let lock = Mutex.create () and opened = Condition.create () in
  let is_open = ref false in
  let wake () =
    Mutex.lock lock;
    is_open := true;
    Condition.signal opened;
    Mutex.unlock lock
  in
  if register wake then begin
    Mutex.lock lock;
    while not !is_open do
      Condition.wait opened lock
    done;
    Mutex.unlock lock
  end

let suspend register =
  match Domain.DLS.get dls_key with
  | Some _ -> Effect.perform (Suspend register)
  | None -> block register

(* ------------------------------------------------------------------ *)
(* Write-once cells                                                    *)

(* One atomic holds the cell's whole state, so filling and waiting take
   no lock.  A reader that finds no value registers its waker with a
   compare-and-set against the state it last saw: a fill between the
   look and the registration makes the set fail, and the retry finds the
   value and does not suspend.  That retry is the flag-then-recheck
   handshake of every one-shot wait, written here once.  A fill swaps
   the value in for the waker list and wakes each waker, so no waker
   outlives its wait and no wait is woken for another. *)
module Ivar = struct
  type 'a state = Empty of (unit -> unit) list | Full of 'a
  type 'a t = 'a state Atomic.t

  let create () = Atomic.make (Empty [])

  let rec fill t v =
    match Atomic.get t with
    | Full _ -> false
    | Empty wakers as seen ->
        if Atomic.compare_and_set t seen (Full v) then begin
          List.iter (fun wake -> wake ()) wakers;
          true
        end
        else fill t v

  let peek t = match Atomic.get t with Full v -> Some v | Empty _ -> None

  let rec read t =
    match Atomic.get t with
    | Full v -> v
    | Empty _ ->
        suspend (fun wake ->
            let rec register () =
              match Atomic.get t with
              | Full _ -> false
              | Empty wakers as seen ->
                  Atomic.compare_and_set t seen (Empty (wake :: wakers))
                  || register ()
            in
            register ());
        read t
end

(* ------------------------------------------------------------------ *)
(* Park slots                                                          *)

(* [park] stores its waker, then re-checks [ready]; a signaler makes
   [ready] true, then looks at the slot.  Both are seq_cst atomics, so
   the re-check sees the signal or the signaler sees the waker (the
   Dekker handshake).  A passing re-check takes the waker back with a
   compare-and-set, which fails only if a wake took it first, and the
   waker is idempotent. *)
module Slot = struct
  type t = (unit -> unit) option Atomic.t

  let create () = Atomic.make None

  let park t ~ready =
    suspend (fun wake ->
        let mine = Some wake in
        Atomic.set t mine;
        if ready () then begin
          ignore (Atomic.compare_and_set t mine None : bool);
          false
        end
        else true)

  let wake t =
    if Option.is_some (Atomic.get t) then
      match Atomic.exchange t None with Some wake -> wake () | None -> ()
end

type 'a task = ('a, exn) result Ivar.t

(* ------------------------------------------------------------------ *)
(* Run queues                                                          *)

let bump_peak pool depth =
  let rec go () =
    let cur = Atomic.get pool.peak_queue in
    if depth > cur && not (Atomic.compare_and_set pool.peak_queue cur depth)
    then go ()
  in
  go ()

(* A worker enqueues to its own queue (locality: a resumed fiber's state
   is warm where its waker ran); everyone else round-robins. *)
let enqueue pool job =
  let i =
    match Domain.DLS.get dls_key with
    | Some (p, me) when p == pool -> me
    | _ -> Atomic.fetch_and_add pool.rr 1 mod pool.p_size
  in
  Atomic.incr pool.pending;
  Mutex.lock pool.locks.(i);
  Queue.push job pool.queues.(i);
  let depth = Queue.length pool.queues.(i) in
  Mutex.unlock pool.locks.(i);
  bump_peak pool depth;
  Mutex.lock pool.idle_lock;
  if pool.idlers > 0 then Condition.signal pool.idle;
  Mutex.unlock pool.idle_lock

let take pool i =
  Mutex.lock pool.locks.(i);
  let job = Queue.take_opt pool.queues.(i) in
  Mutex.unlock pool.locks.(i);
  if Option.is_some job then Atomic.decr pool.pending;
  job

(* ------------------------------------------------------------------ *)
(* Fibers                                                              *)

let exec_fiber pool (body : unit -> unit) =
  let open Effect.Deep in
  match_with body ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  Atomic.incr pool.suspensions;
                  let resumed = Atomic.make false in
                  let wake () =
                    (* Idempotent: the first caller wins, so a waker may
                       sit in several wake lists (and race shutdown
                       broadcasts) without double-resuming the fiber. *)
                    if not (Atomic.exchange resumed true) then begin
                      Atomic.incr pool.resumptions;
                      enqueue pool (fun () -> continue k ())
                    end
                  in
                  if not (register wake) then wake ())
          | _ -> None);
    }

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)

let run_job job =
  try job ()
  with exn ->
    (* Task bodies catch their own exceptions into the task result;
       anything reaching here is a scheduler bug or a raising waker.
       Log rather than kill the worker. *)
    prerr_endline ("volcano_sched: worker caught " ^ Printexc.to_string exn)

let worker pool me () =
  Domain.DLS.set dls_key (Some (pool, me));
  let steal () =
    let rec go k =
      if k >= pool.p_size then None
      else
        let i = (me + k) mod pool.p_size in
        match take pool i with
        | Some _ as job ->
            Atomic.incr pool.stolen;
            job
        | None -> go (k + 1)
    in
    go 1
  in
  let try_dequeue () =
    match take pool me with Some _ as job -> job | None -> steal ()
  in
  let rec loop () =
    match try_dequeue () with
    | Some job ->
        run_job job;
        loop ()
    | None ->
        Mutex.lock pool.idle_lock;
        if pool.stopping then Mutex.unlock pool.idle_lock
        else if Atomic.get pool.pending > 0 then begin
          (* A job landed between our scan and the lock: rescan instead
             of sleeping — [pending] is bumped before the signal, so this
             check under the lock cannot miss a wakeup. *)
          Mutex.unlock pool.idle_lock;
          loop ()
        end
        else begin
          pool.idlers <- pool.idlers + 1;
          Condition.wait pool.idle pool.idle_lock;
          pool.idlers <- pool.idlers - 1;
          Mutex.unlock pool.idle_lock;
          loop ()
        end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

(* One domain per core: every domain takes part in each stop-the-world
   minor GC and in futex wake-ups, so domains past the core count cost
   more than they overlap (4 allocating domains on a 2-core host ran 6.6x
   slower than ideal).  The floor of 2 keeps a wait that is not
   task-shaped (page I/O, buffer frame waits), which holds its worker,
   from holding the only one. *)
let default_workers () = max 2 (Domain.recommended_domain_count ())

let create ?workers () =
  let size = match workers with Some w -> w | None -> default_workers () in
  if size < 1 then invalid_arg "Sched.create: workers must be positive";
  let pool =
    {
      p_size = size;
      queues = Array.init size (fun _ -> Queue.create ());
      locks = Array.init size (fun _ -> Mutex.create ());
      idle_lock = Mutex.create ();
      idle = Condition.create ();
      idlers = 0;
      stopping = false;
      pending = Atomic.make 0;
      rr = Atomic.make 0;
      submitted = Atomic.make 0;
      completed = Atomic.make 0;
      stolen = Atomic.make 0;
      suspensions = Atomic.make 0;
      resumptions = Atomic.make 0;
      peak_queue = Atomic.make 0;
      lat_lock = Mutex.create ();
      lat = Statx.create ();
      lat_sink = None;
      domains = [||];
    }
  in
  pool.domains <- Array.init size (fun i -> Domain.spawn (worker pool i));
  pool

let default_lock = Mutex.create ()
let default_sched : t option ref = ref None

let default () =
  Mutex.lock default_lock;
  let t =
    match !default_sched with
    | Some t -> t
    | None ->
        let t = create () in
        default_sched := Some t;
        t
  in
  Mutex.unlock default_lock;
  t

let workers pool = pool.p_size

let shutdown pool =
  Mutex.lock pool.idle_lock;
  let already = pool.stopping in
  pool.stopping <- true;
  Condition.broadcast pool.idle;
  Mutex.unlock pool.idle_lock;
  if not already then Array.iter Domain.join pool.domains

(* ------------------------------------------------------------------ *)
(* Tasks                                                               *)

let record_latency pool dt =
  Mutex.lock pool.lat_lock;
  Statx.add pool.lat dt;
  (match pool.lat_sink with
  | Some hist -> Obs.Histogram.observe hist dt
  | None -> ());
  Mutex.unlock pool.lat_lock

let fork pool f =
  let task = Ivar.create () in
  Atomic.incr pool.submitted;
  let forked_at = Clock.now () in
  let fiber () =
    record_latency pool (Clock.now () -. forked_at);
    let r = try Ok (f ()) with exn -> Error exn in
    (* Completion order matters for [assert_quiescent]: the counter must
       read as completed before any awaiter can observe the result and
       tear the world down. *)
    Atomic.incr pool.completed;
    ignore (Ivar.fill task r : bool)
  in
  enqueue pool (fun () -> exec_fiber pool fiber);
  task

let await = Ivar.read

(* ------------------------------------------------------------------ *)
(* Readiness and timed waits                                           *)

(* One poller per process polls every descriptor a wait is registered
   on, plus the read end of a self-pipe that a new registration writes a
   byte to so the poller picks it up; the earliest due time among the
   waits is the poll's timeout.  It wakes each wait whose descriptor
   turned ready or whose due time passed, and forgets it.  [poll] reports
   an error, a hang-up or a closed descriptor per descriptor, so such a
   state wakes only the wait on that descriptor, whose own call then
   fails or reads end of file.  A timer is a due time with no
   descriptor.  The poller is a domain of its own: a systhread made on a
   pool worker would share that worker's DLS and look like a fiber to
   [suspend].  It starts on the first wait, so a process that never waits
   on a descriptor or a due time has none.

   The descriptor waits live in arrays only the poller touches, laid out
   as [poll] takes them: a round moves the waits registered since the
   last one to the end and fills each slot it frees with the last wait,
   so a round allocates nothing for the waits it keeps.  Under hundreds
   of connections a round runs thousands of times a second, and arrays
   of hundreds of words go straight to the major heap. *)
type wait = { due : float; (* [Clock.now] time; [infinity] for none *) wake : unit -> unit }

type timer = wait

type poller = {
  pl_lock : Mutex.t;
  mutable fresh : (Unix.file_descr * int * wait) list;
      (* descriptor waits not yet in a slot, under [pl_lock] *)
  mutable timers : timer list; (* under [pl_lock] *)
  mutable kicked : bool;
      (* under [pl_lock]: a byte is in the pipe since the round took
         [fresh], so a registration need not write another *)
  kick_r : Unix.file_descr;
  kick_w : Unix.file_descr;
  (* The poller's own: slot 0 is [kick_r], slots 1 to [n] the waits. *)
  mutable waits : wait array;
  mutable fds : Unix.file_descr array;
  mutable wanted : int array;
  mutable got : int array;
  mutable n : int;
}

(* [poll fds wanted count timeout_ms got] (poll_stubs.c) polls the first
   [count] descriptors with the runtime lock released and writes each
   one's readiness into [got], in the bits below; [timeout_ms] is whole
   milliseconds, -1 for none.  An error, a hang-up or a closed
   descriptor is reported whether asked or not. *)
external poll :
  Unix.file_descr array -> int array -> int -> int -> int array -> unit
  = "volcano_sched_poll"

let want_read = 1
let want_write = 2
let got_error = 4
let want = function `Read -> want_read | `Write -> want_write

let fd_ready dir fd =
  let got = [| 0 |] in
  poll [| fd |] [| want dir |] 1 0 got;
  got.(0) land (want dir lor got_error) <> 0

(* Rounded up, so a wait is never woken before its due time and made to
   poll again. *)
let timeout_ms due =
  if due = infinity then -1
  else
    let ms = Float.ceil ((due -. Clock.now ()) *. 1e3) in
    int_of_float (Float.min 1e9 (Float.max 0.0 ms))

let no_wait = { due = infinity; wake = ignore }

let add_slot p (fd, wanted, w) =
  if p.n + 1 = Array.length p.fds then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    p.waits <- grow p.waits no_wait;
    p.fds <- grow p.fds p.kick_r;
    p.wanted <- grow p.wanted 0;
    p.got <- grow p.got 0
  end;
  p.n <- p.n + 1;
  p.waits.(p.n) <- w;
  p.fds.(p.n) <- fd;
  p.wanted.(p.n) <- wanted

(* The last slot moves into slot [i], its readiness with it. *)
let drop_slot p i =
  p.waits.(i) <- p.waits.(p.n);
  p.fds.(i) <- p.fds.(p.n);
  p.wanted.(i) <- p.wanted.(p.n);
  p.got.(i) <- p.got.(p.n);
  p.waits.(p.n) <- no_wait;
  p.n <- p.n - 1

let rec poll_loop p buf =
  Mutex.lock p.pl_lock;
  let fresh = p.fresh and timers = p.timers in
  p.fresh <- [];
  p.kicked <- false;
  Mutex.unlock p.pl_lock;
  List.iter (add_slot p) fresh;
  let due = ref infinity in
  List.iter (fun t -> due := Float.min !due t.due) timers;
  for i = 1 to p.n do
    due := Float.min !due p.waits.(i).due
  done;
  poll p.fds p.wanted (p.n + 1) (timeout_ms !due) p.got;
  (* Kicks past [buf]'s length stay readable for the next round. *)
  if p.got.(0) <> 0 then (
    try ignore (Unix.read p.kick_r buf 0 (Bytes.length buf))
    with Unix.Unix_error _ -> ());
  let now = Clock.now () in
  let fire = ref [] in
  let i = ref 1 in
  while !i <= p.n do
    let w = p.waits.(!i) in
    if w.due <= now || p.got.(!i) land (p.wanted.(!i) lor got_error) <> 0
    then begin
      fire := w :: !fire;
      drop_slot p !i
    end
    else incr i
  done;
  if List.exists (fun t -> t.due <= now) timers then begin
    Mutex.lock p.pl_lock;
    let due, keep = List.partition (fun t -> t.due <= now) p.timers in
    p.timers <- keep;
    Mutex.unlock p.pl_lock;
    fire := List.rev_append due !fire
  end;
  List.iter (fun w -> try w.wake () with _ -> ()) !fire;
  poll_loop p buf

let poller_lock = Mutex.create ()
let the_poller : poller option ref = ref None

let poller () =
  Mutex.lock poller_lock;
  let p =
    match !the_poller with
    | Some p -> p
    | None ->
        let kick_r, kick_w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock kick_r;
        Unix.set_nonblock kick_w;
        let slots = 64 in
        let p =
          {
            pl_lock = Mutex.create ();
            fresh = [];
            timers = [];
            kicked = false;
            kick_r;
            kick_w;
            waits = Array.make slots no_wait;
            fds = Array.make slots kick_r;
            wanted = Array.make slots want_read;
            got = Array.make slots 0;
            n = 0;
          }
        in
        ignore
          (Domain.spawn (fun () ->
               (* [poll] fails only past a resource limit (memory, or
                  more waits than RLIMIT_NOFILE): say so rather than
                  end without a word. *)
               try poll_loop p (Bytes.create 64)
               with exn ->
                 prerr_endline
                   ("volcano_sched: poller stopped: " ^ Printexc.to_string exn)));
        the_poller := Some p;
        p
  in
  Mutex.unlock poller_lock;
  p

let kick = Bytes.make 1 '!'

(* [add] runs under [pl_lock].  The first registration since the round
   took [fresh] writes a byte, which makes the poller poll again, now
   over the new wait too; later ones find it there.  A full pipe already
   holds a byte, so [EAGAIN] loses nothing. *)
let register p add =
  Mutex.lock p.pl_lock;
  add ();
  let first = not p.kicked in
  p.kicked <- true;
  Mutex.unlock p.pl_lock;
  if first then
    try ignore (Unix.single_write p.kick_w kick 0 1)
    with Unix.Unix_error _ -> ()

let wait_fd ?(until = infinity) dir fd =
  let p = poller () in
  suspend (fun wake ->
      register p (fun () ->
          p.fresh <- (fd, want dir, { due = until; wake }) :: p.fresh);
      true)

let at due fire =
  let p = poller () in
  let t = { due; wake = fire } in
  register p (fun () -> p.timers <- t :: p.timers);
  t

let cancel_timer t =
  let p = poller () in
  Mutex.lock p.pl_lock;
  p.timers <- List.filter (fun w -> w != t) p.timers;
  Mutex.unlock p.pl_lock

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

type stats = {
  pool_workers : int;
  submitted : int;
  completed : int;
  stolen : int;
  suspensions : int;
  resumptions : int;
  peak_queue_depth : int;
}

let stats (p : t) =
  {
    pool_workers = p.p_size;
    submitted = Atomic.get p.submitted;
    completed = Atomic.get p.completed;
    stolen = Atomic.get p.stolen;
    suspensions = Atomic.get p.suspensions;
    resumptions = Atomic.get p.resumptions;
    peak_queue_depth = Atomic.get p.peak_queue;
  }

let live_tasks t =
  let s = stats t in
  s.submitted - s.completed

let suspended_tasks t =
  let s = stats t in
  s.suspensions - s.resumptions

let task_latency_percentile pool p =
  Mutex.lock pool.lat_lock;
  let v = Statx.percentile pool.lat p in
  Mutex.unlock pool.lat_lock;
  v

let register_obs ?since pool obs =
  if not (Obs.enabled obs) then begin
    (* Detach: a previous sink stops accumulating task latencies. *)
    Mutex.lock pool.lat_lock;
    pool.lat_sink <- None;
    Mutex.unlock pool.lat_lock
  end
  else begin
    let s = stats pool in
    let delta field =
      match since with Some s0 -> field s - field s0 | None -> field s
    in
    Obs.Counter.add (Obs.counter obs "sched.tasks")
      (delta (fun s -> s.submitted));
    Obs.Counter.add
      (Obs.counter obs "sched.steals")
      (delta (fun s -> s.stolen));
    Obs.Counter.add
      (Obs.counter obs "sched.suspensions")
      (delta (fun s -> s.suspensions));
    Obs.Gauge.set (Obs.gauge obs "sched.workers") (float_of_int s.pool_workers);
    Obs.Gauge.set
      (Obs.gauge obs "sched.peak_queue_depth")
      (float_of_int s.peak_queue_depth);
    Mutex.lock pool.lat_lock;
    pool.lat_sink <- Some (Obs.histogram obs "sched.task_latency_s");
    Mutex.unlock pool.lat_lock;
    Obs.Gauge.set
      (Obs.gauge obs "sched.task_latency_p50_s")
      (task_latency_percentile pool 0.5);
    Obs.Gauge.set
      (Obs.gauge obs "sched.task_latency_p95_s")
      (task_latency_percentile pool 0.95)
  end

(* An awaiter can observe a task's result a moment before the worker
   running it bumps [completed] (the result is published first, so the
   waker fires first).  Quiescence is therefore an eventually-stable
   property: give in-flight bookkeeping a bounded grace period before
   declaring a leak. *)
let assert_quiescent ?(what = "sched") t =
  let deadline = Unix.gettimeofday () +. 0.5 in
  let rec wait () =
    let live = live_tasks t in
    let susp = suspended_tasks t in
    if live = 0 && susp = 0 then ()
    else if Unix.gettimeofday () < deadline then (
      Unix.sleepf 0.001;
      wait ())
    else
      failwith
        (Printf.sprintf
           "%s: scheduler not quiescent: %d live tasks, %d suspended fibers"
           what live susp)
  in
  wait ()
