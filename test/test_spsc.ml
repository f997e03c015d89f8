(* Torture tests for the SPSC ring and the ring-based port hot path:
   wraparound and capacity edge cases, cross-domain FIFO and conservation,
   and a large shutdown/poison race matrix checking that no wakeup is ever
   lost on the park paths, with the blocked side both on a plain domain
   and on a pool fiber. *)

module Spsc = Volcano_util.Spsc
module Tuple = Volcano_tuple.Tuple
module Port = Volcano.Port
module Packet = Volcano.Packet
module Sched = Volcano_sched.Sched

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Ring unit properties                                                *)

let test_ring_basics () =
  let r = Spsc.create ~capacity:3 ~dummy:(-1) in
  check Alcotest.int "logical capacity is exact, not pow2" 3 (Spsc.capacity r);
  check Alcotest.bool "starts empty" true (Spsc.is_empty r);
  check Alcotest.bool "push 1" true (Spsc.try_push r 10);
  check Alcotest.bool "push 2" true (Spsc.try_push r 11);
  check Alcotest.bool "push 3" true (Spsc.try_push r 12);
  (* Occupancy is bounded by the configured capacity even though the
     backing array was rounded up to 4. *)
  check Alcotest.bool "push into full fails" false (Spsc.try_push r 13);
  check Alcotest.int "length at full" 3 (Spsc.length r);
  check (Alcotest.option Alcotest.int) "pop fifo" (Some 10) (Spsc.try_pop r);
  check Alcotest.bool "full -> not full after pop" true (Spsc.try_push r 13);
  check (Alcotest.option Alcotest.int) "pop 11" (Some 11) (Spsc.try_pop r);
  check (Alcotest.option Alcotest.int) "pop 12" (Some 12) (Spsc.try_pop r);
  check (Alcotest.option Alcotest.int) "pop 13" (Some 13) (Spsc.try_pop r);
  check (Alcotest.option Alcotest.int) "pop empty" None (Spsc.try_pop r);
  check Alcotest.bool "empty again" true (Spsc.is_empty r)

let test_ring_capacity_one () =
  let r = Spsc.create ~capacity:1 ~dummy:0 in
  for i = 1 to 1000 do
    (* Full/empty transition on every element: the tightest wraparound. *)
    check Alcotest.bool "push" true (Spsc.try_push r i);
    check Alcotest.bool "full" false (Spsc.try_push r (-i));
    check (Alcotest.option Alcotest.int) "pop" (Some i) (Spsc.try_pop r);
    check (Alcotest.option Alcotest.int) "empty" None (Spsc.try_pop r)
  done

let test_ring_wraparound () =
  let r = Spsc.create ~capacity:5 ~dummy:(-1) in
  (* Keep a rolling occupancy of 3 across many index wraps; FIFO order
     must survive every wrap of the 8-slot backing array. *)
  let next_in = ref 0 and next_out = ref 0 in
  for _ = 1 to 3 do
    assert (Spsc.try_push r !next_in);
    incr next_in
  done;
  for _ = 1 to 10_000 do
    assert (Spsc.try_push r !next_in);
    incr next_in;
    (match Spsc.try_pop r with
    | Some v ->
        check Alcotest.int "fifo across wraps" !next_out v;
        incr next_out
    | None -> Alcotest.fail "ring unexpectedly empty");
    check Alcotest.int "steady occupancy" 3 (Spsc.length r)
  done

let test_ring_invalid () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Spsc.create: capacity must be positive") (fun () ->
      ignore (Spsc.create ~capacity:0 ~dummy:()))

(* ------------------------------------------------------------------ *)
(* Cross-domain torture: raw ring                                      *)

(* One producer domain pushes [n] ints while this domain pops: every value
   arrives exactly once, in order — conservation and FIFO under real
   cross-domain publication.  The ring is large so a single-core host can
   move a whole batch per scheduling quantum instead of four. *)
let test_ring_two_domains () =
  let n = 200_000 in
  let r = Spsc.create ~capacity:1024 ~dummy:(-1) in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Spsc.try_push r i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let expected = ref 0 in
  while !expected < n do
    match Spsc.try_pop r with
    | Some v ->
        if v <> !expected then
          Alcotest.failf "out of order: got %d, expected %d" v !expected;
        incr expected
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check (Alcotest.option Alcotest.int) "drained" None (Spsc.try_pop r)

(* ------------------------------------------------------------------ *)
(* Port-level: FIFO per lane, conservation across lanes                *)

let packet_of_int ~producer i =
  let p = Packet.create ~capacity:1 ~producer in
  Packet.add p (Tuple.of_ints [ i ]);
  p

let int_of_packet p = Tuple.int_exn (Packet.get p 0) 0

(* Two producers interleave into one consumer; each lane must stay FIFO
   and nothing may be lost or duplicated.  [run producers consumer] runs
   the three sides concurrently and returns once all are done. *)
let lane_fifo ~flow_slack run =
  let per_producer = 20_000 in
  let port = Port.create ~producers:2 ~consumers:1 ~flow_slack () in
  let produce rank () =
    for i = 0 to per_producer - 1 do
      Port.send port ~producer:rank ~consumer:0 (packet_of_int ~producer:rank i)
    done
  in
  let last = [| -1; -1 |] in
  let consume () =
    for _ = 1 to 2 * per_producer do
      match Port.receive port ~consumer:0 with
      | None -> Alcotest.fail "port shut down unexpectedly"
      | Some p ->
          let rank = Packet.producer p in
          let v = int_of_packet p in
          if v <= last.(rank) then
            Alcotest.failf "lane %d not FIFO: %d after %d" rank v last.(rank);
          last.(rank) <- v
    done
  in
  run [ produce 0; produce 1 ] consume;
  check Alcotest.int "lane 0 complete" (per_producer - 1) last.(0);
  check Alcotest.int "lane 1 complete" (per_producer - 1) last.(1);
  check Alcotest.int "conserved" (2 * per_producer) (Port.packets_received port)

(* Producers on their own domains, the consumer on this one. *)
let on_domains producers consume =
  let domains = List.map Domain.spawn producers in
  consume ();
  List.iter Domain.join domains

(* Every side a fiber on a 1-worker pool: a blocked side's peer can run
   only once it parks. *)
let on_one_worker producers consume =
  let sched = Sched.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Sched.shutdown sched)
    (fun () ->
      let tasks = List.map (Sched.fork sched) (consume :: producers) in
      List.iter
        (fun task ->
          match Sched.await task with Ok () -> () | Error e -> raise e)
        tasks;
      Sched.assert_quiescent ~what:"lane fifo pool" sched)

let test_port_lane_fifo () =
  lane_fifo ~flow_slack:3 on_domains;
  lane_fifo ~flow_slack:1 on_one_worker

(* ------------------------------------------------------------------ *)
(* Shutdown/poison races: no lost wakeups                              *)

(* Where the blocked side of a race runs: [start job] begins [job] there
   and returns its joiner.  Parking goes through one handshake whatever
   the context, so every race runs on both hosts. *)
type host = { start : (unit -> unit) -> unit -> unit; stop : unit -> unit }

(* One long-lived domain fed jobs through a blocking rendezvous (a local
   mutex and condition, so a single-core host hands the CPU over instead
   of burning a timeslice spinning, and the harness shares nothing with
   the engine's own waits) — spawning a domain per round would dominate
   the run time. *)
let domain_host () =
  let lock = Mutex.create () and changed = Condition.create () in
  let slot = ref `Idle in
  let rec await_slot ready =
    match !slot with
    | s when ready s -> s
    | _ ->
        Condition.wait changed lock;
        await_slot ready
  in
  let set s =
    Mutex.lock lock;
    slot := s;
    Condition.broadcast changed;
    Mutex.unlock lock
  in
  let worker =
    Domain.spawn (fun () ->
        let rec loop () =
          Mutex.lock lock;
          let next =
            await_slot (function `Job _ | `Stop -> true | _ -> false)
          in
          Mutex.unlock lock;
          match next with
          | `Job job ->
              job ();
              set `Done;
              loop ()
          | _ -> ()
        in
        loop ())
  in
  let start job =
    set (`Job job);
    fun () ->
      Mutex.lock lock;
      ignore (await_slot (function `Done -> true | _ -> false));
      slot := `Idle;
      Mutex.unlock lock
  in
  let stop () =
    set `Stop;
    Domain.join worker
  in
  { start; stop }

let pool_host () =
  let sched = Sched.create ~workers:1 () in
  let start job =
    let task = Sched.fork sched job in
    fun () -> match Sched.await task with Ok () -> () | Error e -> raise e
  in
  let stop () =
    Fun.protect
      ~finally:(fun () -> Sched.shutdown sched)
      (fun () -> Sched.assert_quiescent ~what:"race pool" sched)
  in
  { start; stop }

let on_each_host race =
  List.iter
    (fun make ->
      let host = make () in
      Fun.protect ~finally:host.stop (fun () -> race host))
    [ domain_host; pool_host ]

(* A consumer blocked in [receive] races a shutdown (or poison) from
   another thread, [rounds] times, on a ring port ([flow_slack] 2) or an
   unbounded one ([None]).  A lost wakeup hangs the case until the
   runner's deadline names it. *)
let shutdown_race_matrix ~rounds ~flow_slack host =
  for round = 1 to rounds do
    let port = Port.create ~producers:1 ~consumers:1 ?flow_slack () in
    let join =
      host.start (fun () ->
          (* Block until a packet or the shutdown arrives; either way
             every receive must return. *)
          let rec drain () =
            match Port.receive port ~consumer:0 with
            | Some _ -> drain ()
            | None -> ()
          in
          drain ())
    in
    (* Vary the interleaving: sometimes send first, sometimes shut down
       straight away, sometimes poison, and sometimes yield long enough
       for the blocked side to park inside [receive] before the shutdown
       — the wakeup that must never be lost. *)
    (match round mod 4 with
    | 0 ->
        Port.send port ~producer:0 ~consumer:0 (packet_of_int ~producer:0 round)
    | 1 -> Port.poison port (Failure "race")
    | 2 -> Unix.sleepf 1e-4
    | _ -> ());
    Port.shutdown port;
    join ()
  done

let test_shutdown_race_matrix () =
  on_each_host (shutdown_race_matrix ~rounds:10_000 ~flow_slack:(Some 2));
  on_each_host (shutdown_race_matrix ~rounds:2_000 ~flow_slack:None)

(* The mirror race: a producer blocked on a full lane ring must be woken
   by shutdown (and its packet dropped), never stranded. *)
let blocked_producer_shutdown host =
  for round = 1 to 1_000 do
    let port = Port.create ~producers:1 ~consumers:1 ~flow_slack:1 () in
    Port.send port ~producer:0 ~consumer:0 (packet_of_int ~producer:0 0);
    let join =
      host.start (fun () ->
          (* The lane is full: this blocks until the shutdown below. *)
          Port.send port ~producer:0 ~consumer:0 (packet_of_int ~producer:0 1))
    in
    (* Now and then give the producer time to park, so that only the
       shutdown's wake can release it. *)
    if round mod 10 = 0 then Unix.sleepf 1e-3;
    Port.shutdown port;
    join ();
    (* The queued packet survives the shutdown (drain-then-None); the
       blocked send was dropped. *)
    (match Port.receive port ~consumer:0 with
    | Some p -> check Alcotest.int "queued packet survives" 0 (int_of_packet p)
    | None -> Alcotest.fail "queued packet lost");
    check (Alcotest.option Alcotest.int) "then None" None
      (Option.map int_of_packet (Port.receive port ~consumer:0))
  done

let test_blocked_producer_shutdown () = on_each_host blocked_producer_shutdown

(* The registration window: a blocked side checks [shut], then parks on
   its slot, which stores its waker and checks [shut] again.  The
   [Sched_park] site fires between the two; a 50 ms [Delay] there holds
   the waiter inside the window while the port shuts down, so only the
   second check can see the shutdown.  The wait must still return: a
   lost wakeup fails the case after a bounded wait instead of hanging
   it.  [run job] starts [job] on a pool fiber or off the pool; the
   consumer side runs on a ring port and on an unbounded one. *)
let shutdown_in_park_window side run =
  let faults =
    Volcano_fault.Injector.make
      {
        seed = 1L;
        rules =
          [ { site = Sched_park; trigger = At_hit 1; action = Delay 0.05 } ];
      }
  in
  let flow_slack = match side with `Unbounded_consumer -> None | _ -> Some 1 in
  let port = Port.create ~producers:1 ~consumers:1 ?flow_slack ~faults () in
  let wait =
    match side with
    | `Producer ->
        (* The lane's one slot is full: the next send parks. *)
        Port.send port ~producer:0 ~consumer:0 (packet_of_int ~producer:0 0);
        fun () ->
          Port.send port ~producer:0 ~consumer:0 (packet_of_int ~producer:0 1)
    | `Consumer | `Unbounded_consumer ->
        fun () -> ignore (Port.receive port ~consumer:0)
  in
  let returned = Atomic.make false in
  run (fun () ->
      wait ();
      Atomic.set returned true);
  let within seconds what ok =
    let give_up = Unix.gettimeofday () +. seconds in
    while (not (ok ())) && Unix.gettimeofday () < give_up do
      Unix.sleepf 0.001
    done;
    if not (ok ()) then Alcotest.failf "%s within %.0f s" what seconds
  in
  within 5.0 "the waiter reaches the park site" (fun () ->
      Volcano_fault.Injector.hits faults > 0);
  Port.shutdown port;
  within 2.0 "the shutdown wakes the wait" (fun () -> Atomic.get returned)

let test_shutdown_in_park_window () =
  List.iter
    (fun side ->
      let sched = Sched.create ~workers:1 () in
      Fun.protect
        ~finally:(fun () -> Sched.shutdown sched)
        (fun () ->
          shutdown_in_park_window side (fun job ->
              ignore (Sched.fork sched job : unit Sched.task)));
      shutdown_in_park_window side (fun job ->
          ignore (Thread.create job () : Thread.t)))
    [ `Producer; `Consumer; `Unbounded_consumer ]

let suite =
  [
    Alcotest.test_case "ring basics and exact capacity" `Quick test_ring_basics;
    Alcotest.test_case "ring capacity one" `Quick test_ring_capacity_one;
    Alcotest.test_case "ring wraparound fifo" `Quick test_ring_wraparound;
    Alcotest.test_case "ring invalid capacity" `Quick test_ring_invalid;
    Alcotest.test_case "ring two domains" `Slow test_ring_two_domains;
    Alcotest.test_case "port lane fifo and conservation" `Slow
      test_port_lane_fifo;
    Alcotest.test_case "10k shutdown/poison races" `Slow
      test_shutdown_race_matrix;
    Alcotest.test_case "blocked producer woken by shutdown" `Slow
      test_blocked_producer_shutdown;
    Alcotest.test_case "shutdown inside the park window" `Quick
      test_shutdown_in_park_window;
  ]
