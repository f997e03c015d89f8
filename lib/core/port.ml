module Clock = Volcano_util.Clock
module Spsc = Volcano_util.Spsc
module Injector = Volcano_fault.Injector
module Sched = Volcano_sched.Sched

(* Every (producer, consumer) pair owns a dedicated lane, so each lane
   has exactly one writing domain and one reading domain — single
   producer, single consumer — whatever the port's mode:

   - flow control on: the lane is a bounded SPSC ring whose capacity IS
     the flow-control slack.  The uncontended send is one try_push (two
     atomics), with no semaphore and no mutex; a full ring parks the
     sender at once until the consumer frees a slot or the port shuts
     down.

   - flow control off: producers must be able to run unboundedly ahead
     (the no-fork interchange relies on this: each process is both
     producer and consumer, so any bound can cycle into a deadlock), so
     the lane falls back to a striped mutex+queue — still per pair, so
     producers never contend with each other, only pairwise with their
     consumer.

   A blocked side never busy-waits: it parks at once on a [Sched.Slot],
   a lock-free one-waiter slot.  A producer parks on its lane's slot
   when the ring is full, a consumer on its sink's slot (one per
   consumer, covering all of its lanes) when every lane is empty; the
   one-waiter rule holds because a lane has one producer and a sink one
   consumer.  Every path that frees a slot, delivers a packet or shuts
   the port down first changes what the parked side re-checks, then
   wakes the slot, which costs one atomic read when nobody is parked.
   No park or wake takes a lock; [q_lock] guards only the unbounded
   queue.  A parked producer is woken on every slot its consumer frees,
   so the pipeline stays as full as the ring allows. *)

type lane = {
  ring : Packet.t Spsc.t option; (* Some = bounded (flow-controlled) *)
  q_lock : Mutex.t; (* guards [items] *)
  items : Packet.t Queue.t; (* unbounded fallback, empty in ring mode *)
  q_count : int Atomic.t; (* occupancy of [items], for lock-free polls *)
  producer : Sched.Slot.t; (* where a full ring parks the producer *)
  pool : Packet.Pool.t; (* recycled packets, consumer back to producer *)
  peak : int Atomic.t; (* producer-side high-water occupancy *)
}

type sink = {
  consumer : Sched.Slot.t; (* where an empty poll parks the consumer *)
  mutable rr : int; (* next producer lane to poll; consumer-local *)
}

type t = {
  n_producers : int;
  n_consumers : int;
  separate : bool;
  lanes : lane array; (* producer-major: index p * n_consumers + c *)
  sinks : sink array; (* one per consumer *)
  shut : bool Atomic.t;
  poisoned : exn option Atomic.t; (* first producer/consumer failure *)
  on_shutdown : unit -> unit; (* cancellation chaining (runs once) *)
  hook_ran : bool Atomic.t;
  faults : Injector.t;
  sent : int Atomic.t;
  received : int Atomic.t;
  records : int Atomic.t;
  sent_by : int Atomic.t array; (* packets per producer rank *)
  stalls : int Atomic.t; (* sends that found their ring full *)
  stall_ns : int Atomic.t; (* time blocked there; updated when [timed] *)
  timed : bool; (* profiling on: clock the full-ring waits *)
}

let make_lane flow_slack =
  {
    ring =
      Option.map
        (fun slack ->
          Spsc.create ~capacity:slack
            ~dummy:(Packet.create ~capacity:1 ~producer:0))
        flow_slack;
    q_lock = Mutex.create ();
    items = Queue.create ();
    q_count = Atomic.make 0;
    producer = Sched.Slot.create ();
    pool =
      Packet.Pool.create
        ~slots:(match flow_slack with Some slack -> slack + 2 | None -> 8);
    peak = Atomic.make 0;
  }

let make_sink () = { consumer = Sched.Slot.create (); rr = 0 }

let create ~producers ~consumers ?flow_slack ?(keep_separate = false)
    ?(faults = Injector.none) ?(on_shutdown = fun () -> ()) ?(timed = false) () =
  assert (producers > 0 && consumers > 0);
  (match flow_slack with Some n -> assert (n > 0) | None -> ());
  {
    n_producers = producers;
    n_consumers = consumers;
    separate = keep_separate;
    lanes = Array.init (producers * consumers) (fun _ -> make_lane flow_slack);
    sinks = Array.init consumers (fun _ -> make_sink ());
    shut = Atomic.make false;
    poisoned = Atomic.make None;
    on_shutdown;
    hook_ran = Atomic.make false;
    faults;
    sent = Atomic.make 0;
    received = Atomic.make 0;
    records = Atomic.make 0;
    sent_by = Array.init producers (fun _ -> Atomic.make 0);
    stalls = Atomic.make 0;
    stall_ns = Atomic.make 0;
    timed;
  }

let producers t = t.n_producers
let consumers t = t.n_consumers
let keep_separate t = t.separate

let lane_of t ~producer ~consumer =
  t.lanes.((producer * t.n_consumers) + consumer)

let bump_peak lane occupancy =
  if occupancy > Atomic.get lane.peak then Atomic.set lane.peak occupancy

(* ------------------------------------------------------------------ *)
(* Producer side                                                       *)

(* Non-mutating occupancy checks, the parks' re-checks (the polls
   themselves mutate: they pop). *)
let lane_occupied lane =
  match lane.ring with
  | Some ring -> not (Spsc.is_empty ring)
  | None -> Atomic.get lane.q_count > 0

let ring_has_space ring = Spsc.length ring < Spsc.capacity ring

(* Full ring: park on the lane's slot until the consumer frees a slot
   or the port shuts down; the slot's re-check covers both, so the
   consumer's pop-then-wake cannot slip between our check and our sleep.
   The [Sched_park] fault site fires once, before the first suspend.
   Returns false iff the port shut down before a slot freed (the packet
   is dropped, as post-shutdown sends are). *)
let push_parking t lane ring packet =
  let ready () = ring_has_space ring || Atomic.get t.shut in
  let rec park first =
    if Spsc.try_push ring packet then true
    else if Atomic.get t.shut then false
    else begin
      if first then Injector.hit t.faults Volcano_fault.Sched_park;
      Sched.Slot.park lane.producer ~ready;
      park false
    end
  in
  park true

let send t ~producer ~consumer packet =
  Injector.hit t.faults Volcano_fault.Port_send;
  if not (Atomic.get t.shut) then begin
    let lane = lane_of t ~producer ~consumer in
    let delivered =
      match lane.ring with
      | Some ring ->
          if Spsc.try_push ring packet then true
          else begin
            (* A stall (the fast-path push fails) is counted always and
               clocked only on timed ports, so un-profiled queries never
               read the clock here. *)
            Atomic.incr t.stalls;
            if t.timed then begin
              let t0 = Clock.now () in
              let ok = push_parking t lane ring packet in
              let waited = Clock.now () -. t0 in
              let _ =
                Atomic.fetch_and_add t.stall_ns
                  (int_of_float (waited *. 1e9))
              in
              ok
            end
            else push_parking t lane ring packet
          end
      | None ->
          Mutex.lock lane.q_lock;
          Queue.push packet lane.items;
          Mutex.unlock lane.q_lock;
          let occupancy = Atomic.fetch_and_add lane.q_count 1 + 1 in
          bump_peak lane occupancy;
          true
    in
    if delivered then begin
      (match lane.ring with
      | Some ring -> bump_peak lane (Spsc.length ring)
      | None -> ());
      Atomic.incr t.sent;
      Atomic.incr t.sent_by.(producer);
      let _ = Atomic.fetch_and_add t.records (Packet.length packet) in
      Sched.Slot.wake t.sinks.(consumer).consumer
    end
  end

(* ------------------------------------------------------------------ *)
(* Consumer side                                                       *)

(* Non-blocking take from one lane; on success, a parked producer of a
   ring lane is woken to refill the slot we just freed. *)
let take_lane lane =
  match lane.ring with
  | Some ring -> (
      match Spsc.try_pop ring with
      | Some _ as packet ->
          Sched.Slot.wake lane.producer;
          packet
      | None -> None)
  | None ->
      if Atomic.get lane.q_count = 0 then None
      else begin
        Mutex.lock lane.q_lock;
        let packet = Queue.take_opt lane.items in
        Mutex.unlock lane.q_lock;
        (match packet with
        | Some _ -> Atomic.decr lane.q_count
        | None -> ());
        packet
      end

(* Poll the consumer's lanes round-robin from where the last receive left
   off, so no producer is starved behind rank 0's stream. *)
let poll_any t ~consumer =
  let sink = t.sinks.(consumer) in
  let n = t.n_producers in
  let rec go i =
    if i = n then None
    else
      let producer = (sink.rr + i) mod n in
      match take_lane (lane_of t ~producer ~consumer) with
      | Some _ as packet ->
          sink.rr <- (producer + 1) mod n;
          packet
      | None -> go (i + 1)
  in
  go 0

(* Blocking receive around an arbitrary non-blocking [poll]: park on the
   consumer's sink until a poll succeeds.  Shutdown is checked only after
   a failed poll, so packets already queued survive a shutdown
   (drain-then-None semantics).  [ready] is the non-mutating counterpart
   of [poll], the slot's re-check for arrivals.  The [Sched_park] fault
   site fires once, before the first suspend. *)
let receive_with t ~consumer ~ready poll =
  Injector.hit t.faults Volcano_fault.Port_receive;
  let slot = t.sinks.(consumer).consumer in
  let rec park first =
    match poll () with
    | Some _ as packet -> packet
    | None ->
        if Atomic.get t.shut then None
        else begin
          if first then Injector.hit t.faults Volcano_fault.Sched_park;
          Sched.Slot.park slot ~ready:(fun () ->
              ready () || Atomic.get t.shut);
          park false
        end
  in
  let packet = park true in
  (match packet with Some _ -> Atomic.incr t.received | None -> ());
  packet

let any_lane_occupied t ~consumer =
  let n = t.n_producers in
  let rec go producer =
    producer < n
    && (lane_occupied (lane_of t ~producer ~consumer) || go (producer + 1))
  in
  go 0

let receive t ~consumer =
  if t.separate then
    invalid_arg "Port.receive: keep-separate port requires receive_from";
  receive_with t ~consumer
    ~ready:(fun () -> any_lane_occupied t ~consumer)
    (fun () -> poll_any t ~consumer)

let receive_from t ~producer ~consumer =
  let lane = lane_of t ~producer ~consumer in
  receive_with t ~consumer
    ~ready:(fun () -> lane_occupied lane)
    (fun () -> take_lane lane)

let try_receive t ~consumer =
  if t.separate then
    invalid_arg "Port.try_receive: keep-separate port requires receive_from";
  match poll_any t ~consumer with
  | Some _ as packet ->
      Atomic.incr t.received;
      packet
  | None -> None

(* ------------------------------------------------------------------ *)
(* Packet recycling                                                    *)

let alloc t ~producer ~consumer ~capacity =
  Packet.Pool.alloc (lane_of t ~producer ~consumer).pool ~capacity ~producer

let recycle t ~consumer packet =
  let producer = Packet.producer packet in
  if producer >= 0 && producer < t.n_producers then
    Packet.Pool.recycle (lane_of t ~producer ~consumer).pool packet

let pool_allocated t =
  Array.fold_left (fun acc l -> acc + Packet.Pool.allocated l.pool) 0 t.lanes

let pool_reused t =
  Array.fold_left (fun acc l -> acc + Packet.Pool.reused l.pool) 0 t.lanes

let pool_recycled t =
  Array.fold_left (fun acc l -> acc + Packet.Pool.recycled l.pool) 0 t.lanes

(* ------------------------------------------------------------------ *)
(* Shutdown                                                            *)

let shutdown t =
  Atomic.set t.shut true;
  (* Exact wakeups: every parked consumer waits on its sink's slot and
     every parked producer on its lane's, so waking each slot reaches
     precisely the waiters (no semaphore flooding).  A parking side
     re-checks [shut] after storing its waker, so the flag-then-wake
     order cannot strand a late sleeper. *)
  Array.iter (fun sink -> Sched.Slot.wake sink.consumer) t.sinks;
  Array.iter (fun lane -> Sched.Slot.wake lane.producer) t.lanes;
  (* Chain the cancellation downwards exactly once: ports created below
     this exchange must also wake their blocked producers and consumers,
     or a producer stuck in a descendant's receive would never observe
     this shutdown (satellite: early close of a deep pipeline). *)
  if not (Atomic.exchange t.hook_ran true) then t.on_shutdown ()

let poison t exn =
  (* First failure wins; [None] is immediate so compare-and-set is exact. *)
  ignore (Atomic.compare_and_set t.poisoned None (Some exn));
  shutdown t

let failure t = Atomic.get t.poisoned
let is_shut_down t = Atomic.get t.shut
let packets_sent t = Atomic.get t.sent
let packets_received t = Atomic.get t.received
let records_sent t = Atomic.get t.records

let max_depth t =
  Array.fold_left (fun acc lane -> max acc (Atomic.get lane.peak)) 0 t.lanes

let packets_sent_by t = Array.map Atomic.get t.sent_by
let flow_stalls t = Atomic.get t.stalls
let flow_stall_s t = float_of_int (Atomic.get t.stall_ns) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Transport abstraction                                               *)

module Transport = struct
  exception Remote_failure of { site : string; message : string }

  let () =
    Printexc.register_printer (function
      | Remote_failure { site; message } ->
          Some
            (Printf.sprintf "Port.Transport.Remote_failure(site %s: %s)" site
               message)
      | _ -> None)

  (* [Routed] is the repartitioning event: the remote producer already
     applied the partition function, and the packet must reach consumer
     [dest] specifically — a merge edge ([Data]) lets the feeder pick any
     consumer. *)
  type event =
    | Data of Packet.t
    | Routed of int * Packet.t
    | Eos
    | Failed of exn

  type source = {
    pull : alloc:(dest:int option -> capacity:int -> Packet.t) -> event;
    cancel : unit -> unit;
    join : unit -> unit;
    narrow : int list -> unit;
  }
end
