(* The worker-pool scheduler and the multi-query runtime on top of it:
   fork/await/steal mechanics, fiber suspension (write-once cells, park
   slots, group port lookups, blocked ports),
   pool exhaustion (more producers than workers must not deadlock),
   admission gating, queued-task cancellation, deadlines, and the Session
   facade tying them together. *)

module Sched = Volcano_sched.Sched
module Runtime = Volcano_sched.Runtime
module Exchange = Volcano.Exchange
module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Session = Volcano_plan.Session
module Tuple = Volcano_tuple.Tuple
module Group = Volcano.Group
module Port = Volcano.Port

let check = Alcotest.check

let with_pool ?(workers = 2) f =
  let sched = Sched.create ~workers () in
  Fun.protect
    ~finally:(fun () -> Sched.shutdown sched)
    (fun () ->
      let r = f sched in
      Sched.assert_quiescent ~what:"test pool" sched;
      r)

(* --- pool basics ----------------------------------------------------- *)

let test_fork_await () =
  with_pool ~workers:2 (fun sched ->
      let tasks = List.init 50 (fun i -> Sched.fork sched (fun () -> i * i)) in
      List.iteri
        (fun i task ->
          match Sched.await task with
          | Ok v -> check Alcotest.int "task result" (i * i) v
          | Error exn -> Alcotest.failf "task %d: %s" i (Printexc.to_string exn))
        tasks;
      let s = Sched.stats sched in
      check Alcotest.int "workers" 2 s.Sched.pool_workers;
      check Alcotest.int "submitted" 50 s.Sched.submitted;
      check Alcotest.int "completed" 50 s.Sched.completed)

(* The default pool is one domain per core with a floor of 2, and a pool
   of no workers does not exist. *)
let test_default_workers () =
  check Alcotest.int "max 2 cores"
    (max 2 (Domain.recommended_domain_count ()))
    (Sched.default_workers ());
  Alcotest.check_raises "0 workers"
    (Invalid_argument "Sched.create: workers must be positive") (fun () ->
      ignore (Sched.create ~workers:0 () : Sched.t));
  Alcotest.check_raises "a session of 0 workers"
    (Invalid_argument "Sched.create: workers must be positive") (fun () ->
      ignore (Session.create ~workers:0 () : Session.t))

let test_task_failure () =
  with_pool (fun sched ->
      let task = Sched.fork sched (fun () -> failwith "boom") in
      match Sched.await task with
      | Ok _ -> Alcotest.fail "expected Error"
      | Error (Failure msg) -> check Alcotest.string "message" "boom" msg
      | Error exn -> Alcotest.failf "wrong exn: %s" (Printexc.to_string exn))

(* Poll [cond] for up to 5 s: a lost wakeup fails the case instead of
   hanging the suite. *)
let eventually what cond =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if not (cond ()) then Alcotest.failf "%s: never happened" what

(* Readers both on-pool (the fiber suspends) and off-pool (the thread
   blocks on its gate) wake on one fill, and only the first fill counts.
   The readers report through atomics, so a lost wake fails [eventually];
   [with_pool] checks that the fiber finished. *)
let test_event () =
  with_pool (fun sched ->
      let gate = Sched.Ivar.create () in
      check Alcotest.(option int) "not filled" None (Sched.Ivar.peek gate);
      let on_pool = Atomic.make 0 and off_pool = Atomic.make 0 in
      ignore
        (Sched.fork sched (fun () -> Atomic.set on_pool (Sched.Ivar.read gate))
          : unit Sched.task);
      let thread =
        Thread.create (fun () -> Atomic.set off_pool (Sched.Ivar.read gate)) ()
      in
      Unix.sleepf 0.005;
      check Alcotest.bool "the first fill wins" true (Sched.Ivar.fill gate 7);
      eventually "both readers return" (fun () ->
          Atomic.get on_pool = 7 && Atomic.get off_pool = 7);
      Thread.join thread;
      check Alcotest.bool "a second fill loses" false (Sched.Ivar.fill gate 8);
      check Alcotest.(option int) "and changes nothing" (Some 7)
        (Sched.Ivar.peek gate))

(* Off the pool, [suspend] blocks the calling thread on a gate made for
   that one wait.  [wakes] is how many times the other domain fires the
   stored waker once it has set [fired]; [stale] wakers from earlier
   waits are fired while this one registers.  Returns this wait's
   waker. *)
let suspend_until_fired ?(stale = []) ~wakes () =
  let stored = Atomic.make None and fired = Atomic.make false in
  let firer =
    Domain.spawn (fun () ->
        eventually "waker stored" (fun () ->
            Option.is_some (Atomic.get stored));
        Unix.sleepf 0.01;
        Atomic.set fired true;
        let wake = Option.get (Atomic.get stored) in
        for _ = 1 to wakes do
          wake ()
        done)
  in
  Sched.suspend (fun wake ->
      List.iter (fun stale_wake -> stale_wake ()) stale;
      Atomic.set stored (Some wake);
      true);
  check Alcotest.bool "returned only once woken" true (Atomic.get fired);
  Domain.join firer;
  Option.get (Atomic.get stored)

let test_suspend_off_pool_blocks () =
  (* The event already happened: no wait at all. *)
  Sched.suspend (fun _ -> false);
  (* A waker fired later from another domain releases the wait. *)
  let first = suspend_until_fired ~wakes:1 () in
  (* A double wake is harmless, and wakers of waits that already
     returned open nothing: the next wait still blocks until its own
     waker fires. *)
  let second = suspend_until_fired ~wakes:2 () in
  let third = suspend_until_fired ~stale:[ first; second ] ~wakes:1 () in
  ignore (third : unit -> unit)

(* Systhreads share their domain: two of them blocked in [Ivar.read] on
   their own cells, filled in reverse order, must each be released by
   their own cell alone.  A gate shared by the domain would let one
   thread's waker stand in for the other's. *)
let test_systhread_waits () =
  let cells = Array.init 2 (fun _ -> Sched.Ivar.create ()) in
  let returned = Array.init 2 (fun _ -> Atomic.make false) in
  let threads =
    Array.to_list
      (Array.mapi
         (fun i e ->
           Thread.create
             (fun () ->
               Sched.Ivar.read e;
               Atomic.set returned.(i) true)
             ())
         cells)
  in
  Unix.sleepf 0.02;
  ignore (Sched.Ivar.fill cells.(1) () : bool);
  eventually "second thread returns" (fun () -> Atomic.get returned.(1));
  check Alcotest.bool "first thread still waits" false
    (Atomic.get returned.(0));
  ignore (Sched.Ivar.fill cells.(0) () : bool);
  eventually "first thread returns" (fun () -> Atomic.get returned.(0));
  List.iter Thread.join threads

(* The poller polls, so a descriptor's number does not matter: a wait on
   descriptor 1100 (one pipe end moved there, standing in for a process
   with that many open) completes once its pipe is written.  A wait whose
   descriptor is closed under it wakes too, and alone: [poll] reports the
   closed descriptor for its own wait only, and an unrelated wait sleeps
   on through both. *)
let test_wait_fd_past_1024 () =
  let r, w = Unix.pipe ~cloexec:true () in
  let high : Unix.file_descr = Obj.magic 1100 in
  (match Unix.dup2 ~cloexec:true r high with
  | () -> ()
  | exception Unix.Unix_error _ ->
      Unix.close r;
      Unix.close w;
      Alcotest.skip ());
  let r2, w2 = Unix.pipe ~cloexec:true () in
  let r3, w3 = Unix.pipe ~cloexec:true () in
  List.iter Unix.set_nonblock [ high; r2 ];
  let r3_open = ref true in
  Fun.protect ~finally:(fun () ->
      List.iter Unix.close [ high; r; w; r2; w2; w3 ];
      if !r3_open then Unix.close r3)
  @@ fun () ->
  with_pool ~workers:2 (fun sched ->
      let wakes = Atomic.make 0 in
      (* Retried the way [Wire]'s loops retry. *)
      let reader ?(woke = ignore) fd =
        Sched.fork sched (fun () ->
            let buf = Bytes.create 1 in
            let rec go () =
              match Unix.read fd buf 0 1 with
              | n -> n
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                ->
                  Sched.wait_fd `Read fd;
                  woke ();
                  go ()
            in
            go ())
      in
      let read_one what task =
        check Alcotest.(result int reject) what (Ok 1)
          (match Sched.await task with Ok n -> Ok n | Error _ -> Ok (-1))
      in
      let unrelated = reader ~woke:(fun () -> Atomic.incr wakes) r2 in
      let past_1024 = reader high in
      Unix.sleepf 0.05;
      ignore (Unix.write_substring w "x" 0 1 : int);
      read_one "the wait on descriptor 1100 reads its byte" past_1024;
      (* A 5-s due time bounds the wait if the close is never reported. *)
      let t0 = Unix.gettimeofday () in
      let closed =
        Sched.fork sched (fun () ->
            Sched.wait_fd ~until:(Volcano_util.Clock.now () +. 5.0) `Read r3)
      in
      Unix.sleepf 0.05;
      Unix.close r3;
      r3_open := false;
      (* Closing a descriptor does not end a poll already in progress;
         the poller's next round, which this timer starts, reports it. *)
      ignore (Sched.at (Volcano_util.Clock.now () +. 0.01) ignore : Sched.timer);
      ignore (Sched.await closed : (unit, exn) result);
      let waited = Unix.gettimeofday () -. t0 in
      if waited > 2.0 then
        Alcotest.failf "the wait on a closed descriptor woke after %.2f s" waited;
      ignore (Unix.write_substring w2 "x" 0 1 : int);
      read_one "the other wait reads its byte" unrelated;
      if Atomic.get wakes > 2 then
        Alcotest.failf "an unrelated wait woke %d times" (Atomic.get wakes))

(* The poller keeps its waits in slots that it grows and refills as
   waits leave: 200 descriptor waits (past the 64 slots it starts with),
   woken in a shuffled order, each read their own byte well before their
   due time, and a timer set among them fires.  A wait the poller lost
   would never return, so the test counts returns before it awaits. *)
let test_many_waits_any_order () =
  let n = 200 in
  let pipes = Array.init n (fun _ -> Unix.pipe ~cloexec:true ()) in
  Fun.protect ~finally:(fun () ->
      Array.iter
        (fun (r, w) ->
          Unix.close r;
          Unix.close w)
        pipes)
  @@ fun () ->
  Array.iter (fun (r, _) -> Unix.set_nonblock r) pipes;
  let byte i = Char.chr (i mod 256) in
  with_pool ~workers:2 (fun sched ->
      let t0 = Unix.gettimeofday () in
      let until = Volcano_util.Clock.now () +. 5.0 in
      let returned = Atomic.make 0 in
      let waits =
        Array.map
          (fun (r, _) ->
            Sched.fork sched (fun () ->
                let buf = Bytes.create 1 in
                let rec go () =
                  match Unix.read r buf 0 1 with
                  | _ ->
                      Atomic.incr returned;
                      Some (Bytes.get buf 0)
                  | exception
                      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                    ->
                      if Volcano_util.Clock.now () >= until then None
                      else begin
                        Sched.wait_fd ~until `Read r;
                        go ()
                      end
                in
                go ()))
          pipes
      in
      let fired = Atomic.make false in
      ignore
        (Sched.at
           (Volcano_util.Clock.now () +. 0.02)
           (fun () -> Atomic.set fired true)
          : Sched.timer);
      Unix.sleepf 0.05;
      let order = Array.init n Fun.id in
      let rng = Random.State.make [| 7 |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      Array.iter
        (fun i ->
          ignore (Unix.write (snd pipes.(i)) (Bytes.make 1 (byte i)) 0 1 : int))
        order;
      eventually "every wait returns" (fun () -> Atomic.get returned = n);
      Array.iteri
        (fun i task ->
          check
            Alcotest.(option char)
            (Printf.sprintf "wait %d reads its byte" i)
            (Some (byte i))
            (match Sched.await task with Ok c -> c | Error exn -> raise exn))
        waits;
      let waited = Unix.gettimeofday () -. t0 in
      if waited > 2.0 then Alcotest.failf "the waits took %.2f s" waited;
      eventually "the timer fires" (fun () -> Atomic.get fired))

(* --- pool exhaustion -------------------------------------------------- *)

(* More producer tasks than workers, with blocking dependencies between
   them (inner producers block on flow control; outer producers block on
   the inner port lookup and receives).  On a 2-worker pool this deadlocks
   unless every one of those waits suspends its fiber instead of holding
   the worker. *)
let test_pool_exhaustion_no_deadlock () =
  let slice n =
    Plan.Generate_slice
      { arity = 2; count = n; gen = (fun i -> Tuple.of_ints [ i; i mod 7 ]) }
  in
  let plan =
    Plan.Exchange
      {
        cfg = Exchange.config ~degree:4 ~packet_size:3 ~flow_slack:(Some 2) ();
        input =
          Plan.Exchange
            {
              cfg =
                Exchange.config ~degree:3 ~packet_size:3 ~flow_slack:(Some 2)
                  ();
              input = slice 600;
            };
      }
  in
  Session.with_session ~workers:2 ~frames:64 ~page_size:512 (fun s ->
      for _ = 1 to 3 do
        check Alcotest.int "rows survive 7 tasks on 2 workers" 600
          (Session.exec_count s (`Plan plan))
      done;
      Sched.assert_quiescent ~what:"exhaustion" (Session.sched s))

(* --- runtime: admission, cancellation, deadlines ---------------------- *)

let test_admission_gate () =
  with_pool ~workers:4 (fun sched ->
      let rt = Runtime.create ~max_concurrent:2 sched in
      let gate = Sched.Ivar.create () in
      let a = Runtime.submit rt (fun () -> Sched.Ivar.read gate; "a") in
      let b = Runtime.submit rt (fun () -> Sched.Ivar.read gate; "b") in
      let c = Runtime.submit rt (fun () -> "c") in
      (* a and b hold both slots; c must stay queued. *)
      let rec wait_running n =
        if Runtime.running rt < n then (Unix.sleepf 0.002; wait_running n)
      in
      wait_running 2;
      check Alcotest.int "queued behind the gate" 1 (Runtime.queued rt);
      check Alcotest.bool "c not started" true (Runtime.status c = Runtime.Queued);
      ignore (Sched.Ivar.fill gate () : bool);
      check Alcotest.(result string reject) "c runs after release" (Ok "c")
        (match Runtime.await c with Ok v -> Ok v | Error _ -> Ok "?");
      ignore (Runtime.await a : (string, exn) result);
      ignore (Runtime.await b : (string, exn) result);
      Runtime.close rt)

let test_queued_cancel_never_runs () =
  with_pool ~workers:2 (fun sched ->
      let rt = Runtime.create ~max_concurrent:1 sched in
      let gate = Sched.Ivar.create () in
      let ran = Atomic.make false in
      let a = Runtime.submit rt (fun () -> Sched.Ivar.read gate) in
      let b = Runtime.submit rt (fun () -> Atomic.set ran true) in
      check Alcotest.bool "b queued" true (Runtime.status b = Runtime.Queued);
      Runtime.cancel b;
      ignore (Sched.Ivar.fill gate () : bool);
      (match Runtime.await b with
      | Error Runtime.Cancelled -> ()
      | Error exn -> Alcotest.failf "wrong exn: %s" (Printexc.to_string exn)
      | Ok () -> Alcotest.fail "cancelled job returned Ok");
      check Alcotest.bool "b aborted" true (Runtime.status b = Runtime.Aborted);
      ignore (Runtime.await a : (unit, exn) result);
      Runtime.close rt;
      check Alcotest.bool "cancelled-while-queued body never ran" false
        (Atomic.get ran))

let test_close_drains_queue () =
  with_pool ~workers:2 (fun sched ->
      let rt = Runtime.create ~max_concurrent:1 sched in
      let jobs = List.init 5 (fun i -> Runtime.submit rt (fun () -> i)) in
      Runtime.close rt;
      List.iteri
        (fun i j ->
          check Alcotest.bool "finished" true (Runtime.status j = Runtime.Finished);
          match Runtime.await j with
          | Ok v -> check Alcotest.int "drained result" i v
          | Error exn -> Alcotest.failf "job %d: %s" i (Printexc.to_string exn))
        jobs;
      Alcotest.check_raises "submit after close"
        (Invalid_argument "Runtime.submit: runtime is closed") (fun () ->
          ignore (Runtime.submit rt (fun () -> ()) : unit Runtime.job)))

(* A deadline is a timer on the poller, which selects toward the earliest
   one: a deadline sooner than one already pending fires on time, not
   when the later one comes due. *)
let test_earlier_deadline_fires () =
  with_pool ~workers:2 (fun sched ->
      let rt = Runtime.create sched in
      let job deadline_s =
        let stop = Sched.Ivar.create () in
        let on_cancel reason = ignore (Sched.Ivar.fill stop reason : bool) in
        Runtime.submit rt ~deadline_s ~on_cancel (fun () ->
            raise (Sched.Ivar.read stop))
      in
      let late = job 30.0 in
      let t0 = Unix.gettimeofday () in
      let soon = job 0.05 in
      (match Runtime.await soon with
      | Error Runtime.Deadline_exceeded -> ()
      | Error exn -> Alcotest.failf "wrong exn: %s" (Printexc.to_string exn)
      | Ok () -> Alcotest.fail "the job outlived its deadline");
      let waited = Unix.gettimeofday () -. t0 in
      if waited > 2.0 then
        Alcotest.failf "a 50 ms deadline fired after %.2f s" waited;
      check Alcotest.bool "the later deadline is still pending" true
        (Runtime.status late = Runtime.Running);
      Runtime.cancel late;
      (match Runtime.await late with
      | Error Runtime.Cancelled -> ()
      | Error exn -> Alcotest.failf "wrong exn: %s" (Printexc.to_string exn)
      | Ok () -> Alcotest.fail "the cancelled job returned");
      Runtime.close rt)

(* The paper-shaped cancellation path: a deadline (or explicit cancel)
   poisons the query's root scope, the poison chains through every port,
   and the job fails with the reason as the [Query_failed] origin. *)
let big_exchange_plan =
  Plan.Exchange
    {
      cfg = Exchange.config ~degree:2 ~packet_size:8 ~flow_slack:(Some 4) ();
      input =
        Plan.Generate_slice
          { arity = 1; count = 40_000_000; gen = (fun i -> Tuple.of_ints [ i ]) };
    }

let test_session_deadline () =
  Session.with_session ~workers:3 ~frames:64 ~page_size:512 (fun s ->
      match Session.exec_count ~deadline_s:0.03 s (`Plan big_exchange_plan) with
      | n -> Alcotest.failf "40M-row query beat a 30ms deadline (%d rows)" n
      | exception Exchange.Query_failed { origin = Runtime.Deadline_exceeded; _ }
        ->
          Sched.assert_quiescent ~what:"deadline" (Session.sched s)
      | exception exn ->
          Alcotest.failf "wrong failure: %s" (Printexc.to_string exn))

let test_session_cancel_running () =
  Session.with_session ~workers:3 ~frames:64 ~page_size:512 (fun s ->
      let job = Session.submit_count ~label:"big" s (`Plan big_exchange_plan) in
      let rec wait_running () =
        match Session.status job with
        | Runtime.Queued -> Unix.sleepf 0.002; wait_running ()
        | _ -> ()
      in
      wait_running ();
      Session.cancel job;
      (match Session.await job with
      | Error (Exchange.Query_failed { origin = Runtime.Cancelled; _ }) -> ()
      | Error exn -> Alcotest.failf "wrong exn: %s" (Printexc.to_string exn)
      | Ok n -> Alcotest.failf "cancelled query completed with %d rows" n);
      check Alcotest.bool "aborted" true (Session.status job = Runtime.Aborted);
      Sched.assert_quiescent ~what:"cancel" (Session.sched s))

(* --- session basics --------------------------------------------------- *)

let test_session_exec_matches_wide_pool () =
  let mk () =
    Plan.Aggregate
      {
        algo = Plan.Hash_based;
        group_by = [ 1 ];
        aggs = [];
        input =
          Plan.Exchange
            {
              cfg =
                Exchange.config ~degree:3
                  ~partition:(Exchange.Hash_on [ 1 ])
                  ();
              input =
                Plan.Generate_slice
                  {
                    arity = 2;
                    count = 5_000;
                    gen = (fun i -> Tuple.of_ints [ i; i mod 97 ]);
                  };
            };
      }
  in
  let expected =
    Runner.with_wide_pool (fun sched ->
        let wide_env = Env.create ~frames:64 ~page_size:512 ~sched () in
        List.sort Tuple.compare (Runner.run wide_env (mk ())))
  in
  Session.with_session ~workers:2 ~frames:64 ~page_size:512 (fun s ->
      let rows = List.sort Tuple.compare (Session.exec s (`Plan (mk ()))) in
      check Alcotest.bool "2-worker session = wide-pool run" true
        (rows = expected))

let test_session_concurrent_submits () =
  Session.with_session ~workers:3 ~max_concurrent:2 ~frames:128 ~page_size:512
    (fun s ->
      let plan n =
        Plan.Exchange
          {
            cfg = Exchange.config ~degree:2 ~packet_size:5 ();
            input =
              Plan.Generate_slice
                { arity = 1; count = n; gen = (fun i -> Tuple.of_ints [ i ]) };
          }
      in
      let jobs =
        List.init 8 (fun i ->
            (400 + (i * 13), Session.submit_count s (`Plan (plan (400 + (i * 13))))))
      in
      List.iter
        (fun (expect, job) ->
          match Session.await job with
          | Ok n -> check Alcotest.int "concurrent query rows" expect n
          | Error exn -> Alcotest.failf "job failed: %s" (Printexc.to_string exn))
        jobs;
      Sched.assert_quiescent ~what:"concurrent submits" (Session.sched s))

(* --- narrow-vs-wide pool differential ---------------------------------- *)

(* The same randomly decorated plans, one env on a 3-worker pool, one on
   a wide pool that gives most producers a domain of their own: results
   must agree.  The 1000-seed differential in [Test_random_plans] covers
   pooled-vs-serial; this closes the remaining edge. *)
let test_narrow_vs_wide_differential () =
  with_pool ~workers:3 @@ fun narrow ->
  Runner.with_wide_pool @@ fun wide ->
  for case = 0 to 14 do
    let seed = Int64.of_int ((104729 * case) + 7) in
    let rng = Volcano_util.Rng.create seed in
    let depth = 1 + Volcano_util.Rng.int rng 2 in
    let plan =
      Test_random_plans.decorate rng (Test_random_plans.random_plan rng depth)
    in
    let run sched =
      let env = Env.create ~frames:128 ~page_size:512 ~sched () in
      if Test_random_plans.accepted env plan then
        Some (Test_random_plans.sorted_run env plan)
      else None
    in
    match (run narrow, run wide) with
    | Some n, Some w ->
        if n <> w then Alcotest.failf "narrow/wide divergence (seed=%Ld)" seed
    | None, None -> ()
    | _ -> Alcotest.failf "acceptance divergence (seed=%Ld)" seed
  done;
  Sched.assert_quiescent ~what:"wide pool" wide

(* --- write-once cells and their users --------------------------------- *)

(* Two domains race to fill each of 20,000 cells, in order, while two
   pool fibers, a systhread and a domain read them in the same order.  A
   reader that catches up with the fillers reads a cell at the moment it
   is filled, so hundreds of reads per run find it empty at their first
   look and filled by the time they register.  Every cell has exactly
   one winning fill, and every reader returns the winner's value.  A
   reader whose wake is lost fails [eventually] instead of hanging the
   suite. *)
let test_cell_races () =
  let n = 20_000 and readers = 4 in
  with_pool ~workers:2 (fun sched ->
      let cells = Array.init n (fun _ -> Sched.Ivar.create ()) in
      let wins = Array.init n (fun _ -> Atomic.make 0) in
      let got = Array.make_matrix readers n (-1) in
      let progress = Array.init readers (fun _ -> Atomic.make 0) in
      let read r () =
        Array.iteri
          (fun i cell ->
            got.(r).(i) <- Sched.Ivar.read cell;
            Atomic.incr progress.(r))
          cells
      in
      for r = 0 to 1 do
        ignore (Sched.fork sched (read r) : unit Sched.task)
      done;
      let thread = Thread.create (read 2) () in
      let domain = Domain.spawn (read 3) in
      let fillers =
        List.init 2 (fun k ->
            Domain.spawn (fun () ->
                Array.iteri
                  (fun i cell ->
                    (* Uneven pacing, so readers catch up and fall behind. *)
                    for _ = 1 to i * (k + 3) mod 97 do
                      Domain.cpu_relax ()
                    done;
                    if Sched.Ivar.fill cell k then Atomic.incr wins.(i))
                  cells))
      in
      List.iter Domain.join fillers;
      eventually "every reader reads every cell" (fun () ->
          Array.for_all (fun p -> Atomic.get p = n) progress);
      Thread.join thread;
      Domain.join domain;
      Array.iteri
        (fun i w ->
          if Atomic.get w <> 1 then
            Alcotest.failf "cell %d: %d fills won" i (Atomic.get w);
          let winner = Option.get (Sched.Ivar.peek cells.(i)) in
          Array.iteri
            (fun r g ->
              if g.(i) <> winner then
                Alcotest.failf "cell %d: reader %d read %d, the winner filled %d"
                  i r g.(i) winner)
            got)
        wins)

(* Each port key is a cell of its own: a lookup waits for its key alone
   (publishing another key resumes no fiber), a re-publish replaces the
   port, and a cancel fails every lookup of an unpublished key, blocked
   or later, on the pool or off it. *)
let test_group_ports () =
  with_pool ~workers:2 (fun sched ->
      let shared = Group.make_shared ~size:3 in
      let master = Group.attach shared ~rank:0 in
      let member = Group.attach shared ~rank:1 in
      let port () = Port.create ~producers:1 ~consumers:3 () in
      (* Each lookup reports what it got through an atomic, so a lost
         wake fails [eventually]; [with_pool] checks the fibers ended. *)
      let lookup key () =
        try Ok (Group.lookup_port member ~key) with exn -> Error exn
      in
      let lookup_on_pool key =
        let got = Atomic.make None in
        ignore
          (Sched.fork sched (fun () -> Atomic.set got (Some (lookup key ())))
            : unit Sched.task);
        got
      in
      let returned what got =
        eventually what (fun () -> Option.is_some (Atomic.get got));
        Option.get (Atomic.get got)
      in
      let first = lookup_on_pool 1 and other = lookup_on_pool 2 in
      eventually "both lookups wait" (fun () -> Sched.suspended_tasks sched = 2);
      let resumed = (Sched.stats sched).Sched.resumptions in
      let p1 = port () in
      Group.publish_port master ~key:1 p1;
      check Alcotest.bool "the lookup before publish gets the port" true
        (match returned "the key-1 lookup returns" first with
        | Ok p -> p == p1
        | Error _ -> false);
      check Alcotest.int "only that lookup was resumed" (resumed + 1)
        (Sched.stats sched).Sched.resumptions;
      check Alcotest.int "the other key's lookup still waits" 1
        (Sched.suspended_tasks sched);
      let p1' = port () in
      Group.publish_port master ~key:1 p1';
      check Alcotest.bool "a re-publish replaces the port" true
        (Group.lookup_port member ~key:1 == p1');
      let off_pool = Atomic.make None in
      let thread =
        Thread.create (fun () -> Atomic.set off_pool (Some (lookup 3 ()))) ()
      in
      let on_pool = lookup_on_pool 3 in
      eventually "the fiber's key-3 lookup waits" (fun () ->
          Sched.suspended_tasks sched = 2);
      Group.cancel member;
      let cancelled what got =
        check Alcotest.bool what true
          (match returned what got with
          | Error Group.Cancelled -> true
          | Ok _ | Error _ -> false)
      in
      cancelled "a fiber waiting for key 2 raises Cancelled" other;
      cancelled "so does a fiber waiting for key 3" on_pool;
      cancelled "and a thread waiting for key 3" off_pool;
      Thread.join thread;
      Alcotest.check_raises "a lookup after cancel fails at once"
        Group.Cancelled (fun () -> ignore (Group.lookup_port member ~key:4 : Port.t));
      check Alcotest.bool "a published port survives the cancel" true
        (Group.lookup_port member ~key:1 == p1'))

(* --- park slots ----------------------------------------------------- *)

(* Two slots carry a bounded hand-off of [n] items, the shape of a port's
   lane: the producer parks on its slot when it is [slack] items ahead,
   the consumer on its own when it has taken everything sent, and each
   wakes the other's slot after every step.  [run producer consumer]
   starts both sides; a lost wake strands one side and fails
   [eventually]. *)
let slot_handoff run =
  let n = 20_000 and slack = 2 in
  let sent = Atomic.make 0 and taken = Atomic.make 0 in
  let to_producer = Sched.Slot.create () and to_consumer = Sched.Slot.create () in
  let producer () =
    for i = 1 to n do
      let ready () = i - Atomic.get taken <= slack in
      while not (ready ()) do
        Sched.Slot.park to_producer ~ready
      done;
      Atomic.set sent i;
      Sched.Slot.wake to_consumer
    done
  in
  let consumer () =
    for i = 1 to n do
      let ready () = Atomic.get sent >= i in
      while not (ready ()) do
        Sched.Slot.park to_consumer ~ready
      done;
      Atomic.set taken i;
      Sched.Slot.wake to_producer
    done
  in
  run producer consumer;
  eventually "every item is taken" (fun () -> Atomic.get taken = n)

let test_slot_races_wake () =
  with_pool ~workers:2 (fun sched ->
      let fork f = ignore (Sched.fork sched f : unit Sched.task) in
      let thread f = ignore (Thread.create f () : Thread.t) in
      (* One side a pool fiber, the other a systhread, both ways round. *)
      slot_handoff (fun producer consumer ->
          fork consumer;
          thread producer);
      slot_handoff (fun producer consumer ->
          thread consumer;
          fork producer));
  (* Both sides fibers on one worker: a side runs only once the other
     parks. *)
  with_pool ~workers:1 (fun sched ->
      slot_handoff (fun producer consumer ->
          List.iter
            (fun f -> ignore (Sched.fork sched f : unit Sched.task))
            [ consumer; producer ]))

(* The signal lands between the waiter's own check and its park: the
   flag is up, and the wake found nobody.  Only [park]'s re-check can
   see it; nothing will ever wake the slot. *)
let test_slot_recheck_passes () =
  let wait_passes start =
    let slot = Sched.Slot.create () and flag = Atomic.make false in
    let returned = Atomic.make false in
    start (fun () ->
        if not (Atomic.get flag) then begin
          Atomic.set flag true;
          Sched.Slot.wake slot;
          Sched.Slot.park slot ~ready:(fun () -> Atomic.get flag)
        end;
        Atomic.set returned true);
    eventually "a park whose re-check passes returns" (fun () ->
        Atomic.get returned)
  in
  with_pool ~workers:1 (fun sched ->
      wait_passes (fun f -> ignore (Sched.fork sched f : unit Sched.task)));
  wait_passes (fun f -> ignore (Thread.create f () : Thread.t))

(* A waiter parked until a slot's owner shuts it (a flag, then a wake),
   thousands of times, on a plain domain and on a pool fiber.  The
   shutdown comes at once, after the waiter has had time to park, or
   from inside the waiter's re-check — after its waker is stored, so the
   wake takes the waker and the re-check passes too. *)
let slot_shutdown_races (host : Test_spsc.host) =
  for round = 1 to 3_000 do
    let slot = Sched.Slot.create () and shut = Atomic.make false in
    let shut_down () =
      Atomic.set shut true;
      Sched.Slot.wake slot
    in
    let in_recheck = round mod 3 = 2 in
    let ready () =
      if in_recheck && not (Atomic.get shut) then shut_down ();
      Atomic.get shut
    in
    let join =
      host.start (fun () ->
          while not (Atomic.get shut) do
            Sched.Slot.park slot ~ready
          done)
    in
    if round mod 3 = 1 then Unix.sleepf 1e-4;
    if not in_recheck then shut_down ();
    join ()
  done

let test_slot_shutdown_races () = Test_spsc.on_each_host slot_shutdown_races

(* [close] with one job running and one queued behind it returns only
   once both results are in, to a closer on the pool and one off it. *)
let test_close_running_and_queued () =
  with_pool ~workers:2 (fun sched ->
      let rt = Runtime.create ~max_concurrent:1 sched in
      let gate = Sched.Ivar.create () in
      let a = Runtime.submit rt (fun () -> Sched.Ivar.read gate; "a") in
      let b = Runtime.submit rt (fun () -> "b") in
      eventually "a runs" (fun () -> Runtime.running rt = 1);
      check Alcotest.int "b is queued" 1 (Runtime.queued rt);
      let on_pool = Atomic.make false and off_pool = Atomic.make false in
      ignore
        (Sched.fork sched (fun () ->
             Runtime.close rt;
             Atomic.set on_pool true)
          : unit Sched.task);
      let thread =
        Thread.create (fun () -> Runtime.close rt; Atomic.set off_pool true) ()
      in
      Unix.sleepf 0.02;
      check Alcotest.(pair bool bool) "close waits for the running job"
        (false, false)
        (Atomic.get on_pool, Atomic.get off_pool);
      ignore (Sched.Ivar.fill gate () : bool);
      eventually "both closes return" (fun () ->
          Atomic.get on_pool && Atomic.get off_pool);
      Thread.join thread;
      List.iter
        (fun (name, j) ->
          check Alcotest.bool (name ^ " finished") true
            (Runtime.status j = Runtime.Finished);
          check Alcotest.(result string reject) (name ^ "'s result") (Ok name)
            (match Runtime.await j with Ok v -> Ok v | Error _ -> Ok "?"))
        [ ("a", a); ("b", b) ])

let suite =
  [
    Alcotest.test_case "fork and await on the pool" `Quick test_fork_await;
    Alcotest.test_case "default pool size" `Quick test_default_workers;
    Alcotest.test_case "task failure is a result" `Quick test_task_failure;
    Alcotest.test_case "events" `Quick test_event;
    Alcotest.test_case "suspend off pool blocks until woken" `Quick
      test_suspend_off_pool_blocks;
    Alcotest.test_case "systhreads wait on their own gates" `Quick
      test_systhread_waits;
    Alcotest.test_case "a descriptor past select's limit" `Quick
      test_wait_fd_past_1024;
    Alcotest.test_case "pool exhaustion does not deadlock" `Quick
      test_pool_exhaustion_no_deadlock;
    Alcotest.test_case "admission gate" `Quick test_admission_gate;
    Alcotest.test_case "queued cancel never runs" `Quick
      test_queued_cancel_never_runs;
    Alcotest.test_case "close drains the queue" `Quick test_close_drains_queue;
    Alcotest.test_case "deadline poisons the query" `Quick test_session_deadline;
    Alcotest.test_case "an earlier deadline fires on time" `Quick
      test_earlier_deadline_fires;
    Alcotest.test_case "cancel a running query" `Quick
      test_session_cancel_running;
    Alcotest.test_case "session exec matches a wide pool" `Quick
      test_session_exec_matches_wide_pool;
    Alcotest.test_case "concurrent submits" `Quick
      test_session_concurrent_submits;
    Alcotest.test_case "narrow vs wide pool differential" `Quick
      test_narrow_vs_wide_differential;
    Alcotest.test_case "many descriptor waits, woken in any order" `Quick
      test_many_waits_any_order;
    Alcotest.test_case "a cell's first fill wins against racing reads" `Quick
      test_cell_races;
    Alcotest.test_case "group ports wait per key" `Quick test_group_ports;
    Alcotest.test_case "close waits for a running and a queued job" `Quick
      test_close_running_and_queued;
    Alcotest.test_case "a slot's park races its wake" `Quick
      test_slot_races_wake;
    Alcotest.test_case "a slot's park returns on a passing re-check" `Quick
      test_slot_recheck_passes;
    Alcotest.test_case "a slot's park races a shutdown" `Quick
      test_slot_shutdown_races;
  ]
