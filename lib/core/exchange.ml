module Support = Volcano_tuple.Support
module Injector = Volcano_fault.Injector
module Obs = Volcano_obs.Obs
module Sched = Volcano_sched.Sched

exception Query_failed of { site : string; origin : exn }

let () =
  Printexc.register_printer (function
    | Query_failed { site; origin } ->
        Some
          (Printf.sprintf "Exchange.Query_failed(site %s: %s)" site
             (Printexc.to_string origin))
    | _ -> None)

(* Normalize an exception into the single well-typed failure the consumer
   sees; never wrap twice when the failure crosses nested exchanges. *)
let as_query_failed ~fallback origin =
  match origin with
  | Query_failed _ -> origin
  | Volcano_fault.Injected { site; _ } ->
      Query_failed { site = Volcano_fault.site_name site; origin }
  | Port.Transport.Remote_failure { site; _ } ->
      (* A worker-process failure that crossed the wire: the frame carries
         the original site name, so the consumer reports the same site a
         local producer's death would. *)
      Query_failed { site; origin }
  | origin -> Query_failed { site = fallback; origin }

(* ------------------------------------------------------------------ *)
(* Cancellation scopes                                                  *)

(* A scope collects the ports created below one exchange.  The exchange's
   own port cancels its scope on shutdown, so cancellation (early close or
   a poisoned port) propagates down the whole subtree: without this, a
   producer blocked in a descendant port's receive or full flow-control
   lane would never observe that its output port was shut. *)
module Scope = struct
  (* Open with its registered ports, or fired with its first poison
     reason ([None]: only cancelled); every change is a compare-and-set,
     retried on a race. *)
  type state = Open of Port.t list | Fired of exn option
  type t = state Atomic.t

  let create () = Atomic.make (Open [])

  let close reason port =
    match reason with
    | None -> Port.shutdown port
    | Some exn -> Port.poison port exn

  let rec register t port =
    match Atomic.get t with
    | Open ports as seen ->
        if not (Atomic.compare_and_set t seen (Open (port :: ports))) then
          register t port
    (* Born cancelled: the subtree is already being torn down. *)
    | Fired reason -> close reason port

  (* Each shutdown chains into that port's own scope via its
     [on_shutdown] hook, cancelling the tree recursively. *)
  let rec fire t reason =
    match Atomic.get t with
    | Open ports as seen ->
        if Atomic.compare_and_set t seen (Fired reason) then
          List.iter (close reason) ports
        else fire t reason
    | Fired None as seen when Option.is_some reason ->
        (* A poisoning after a cancel: later registrants are poisoned. *)
        if not (Atomic.compare_and_set t seen (Fired reason)) then
          fire t reason
    | Fired _ -> ()

  let cancel t = fire t None

  (* Poison, not shutdown: a plain shutdown ends the streams quietly
     (drain-then-None), which for a runtime-initiated cancellation would
     let the query "succeed" truncated.  Poisoning records the reason so
     the consumer's next raises [Query_failed] instead. *)
  let poison t exn = fire t (Some exn)
end

type partition_spec =
  | Round_robin
  | Hash_on of int list
  | Range_on of int * Volcano_tuple.Value.t array
  | Custom of Support.Partition.t
  | Broadcast

type fork_mode = Fork_tree | Fork_central

type config = {
  degree : int;
  packet_size : int;
  flow_slack : int option;
  partition : partition_spec;
  fork_mode : fork_mode;
}

(* The one validation path, shared by the smart constructor below and by
   planlint's exchange pass: a diagnosis is a (code, message) pair whose
   code matches the analyzer's diagnostic codes. *)
let validate ~degree ~packet_size ~flow_slack =
  let problems = ref [] in
  let problem code msg = problems := (code, msg) :: !problems in
  if degree < 1 then problem "exchange-degree" "degree must be positive";
  if packet_size < 1 || packet_size > Packet.max_capacity then
    problem "exchange-packet-size"
      (Printf.sprintf "packet size must be in [1, %d]" Packet.max_capacity);
  (match flow_slack with
  | Some slack when slack < 1 ->
      problem "exchange-flow-slack" "flow-control slack must be positive"
  | Some _ | None -> ());
  List.rev !problems

let config ?(degree = 1) ?(packet_size = Packet.default_capacity)
    ?(flow_slack = Some 4) ?(partition = Round_robin) ?(fork_mode = Fork_tree)
    () =
  match validate ~degree ~packet_size ~flow_slack with
  | [] -> { degree; packet_size; flow_slack; partition; fork_mode }
  | (_, msg) :: _ -> invalid_arg ("Exchange.config: " ^ msg)

let id_counter = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add id_counter 1
let spawn_counter = Atomic.make 0
let join_counter = Atomic.make 0
let live_counter = Atomic.make 0
let tasks_spawned () = Atomic.get spawn_counter
let tasks_joined () = Atomic.get join_counter
let live_tasks () = Atomic.get live_counter
let unjoined_tasks () = tasks_spawned () - tasks_joined ()

(* Producers and remote feeders alike are scheduler tasks: many tasks
   share a few worker domains. *)
let spawn_task sched body =
  Atomic.incr spawn_counter;
  Atomic.incr live_counter;
  Sched.fork sched (fun () ->
      Fun.protect ~finally:(fun () -> Atomic.decr live_counter) body)

(* Await, absorbing the task's exception: producer failures reach the
   consumer through port poisoning, never through join — a raising join
   would abort teardown half-way and leak the remaining tasks. *)
let join_quiet task =
  ignore (Sched.await task : (unit, exn) result);
  Atomic.incr join_counter

let instantiate_partition spec ~consumers =
  match spec with
  | Round_robin -> Support.Partition.round_robin ~consumers ()
  | Hash_on cols -> Support.Partition.hash ~consumers ~on:cols ()
  | Range_on (col, bounds) ->
      Support.Partition.range ~consumers ~on:col ~bounds ()
  | Custom factory ->
      let f = factory () in
      fun tuple -> ((f tuple mod consumers) + consumers) mod consumers
  | Broadcast -> fun _ -> 0 (* not used; producers replicate explicitly *)

(* ------------------------------------------------------------------ *)
(* Producer side                                                       *)

(* A producer's output side: one open packet per consumer.  Packets come
   from the lane pool: in steady state each refill reuses an array the
   consumer drained and recycled moments ago.  A packet that fills waits
   in [filled] until {!send_filled}, so routing itself makes no port
   call.  The no-fork interchange routes through the same outbox. *)
type outbox = {
  port : Port.t;
  rank : int;
  capacity : int;
  packets : Packet.t array;
  mutable filled : (int * Packet.t) list;  (* newest first *)
}

let outbox port ~rank ~capacity =
  {
    port;
    rank;
    capacity;
    packets =
      Array.init (Port.consumers port) (fun consumer ->
          Port.alloc port ~producer:rank ~consumer ~capacity);
    filled = [];
  }

let deliver (o : outbox) consumer tuple =
  let packet = o.packets.(consumer) in
  Packet.add packet tuple;
  if Packet.is_full packet then begin
    o.filled <- (consumer, packet) :: o.filled;
    o.packets.(consumer) <-
      Port.alloc o.port ~producer:o.rank ~consumer ~capacity:o.capacity
  end

(* Send the packets [deliver] filled, in the order they filled. *)
let send_filled (o : outbox) =
  match o.filled with
  | [] -> ()
  | filled ->
      o.filled <- [];
      List.iter
        (fun (consumer, packet) ->
          Port.send o.port ~producer:o.rank ~consumer packet)
        (List.rev filled)

(* Send what filled, then flag the last packet to every consumer with the
   end-of-stream tag.  That flush is the last touch of each slot, so no
   refill: the pool ledger stays exact (allocations + reuses = packets
   sent on a full drain). *)
let finish (o : outbox) =
  send_filled o;
  if not (Port.is_shut_down o.port) then
    Array.iteri
      (fun consumer packet ->
        Packet.tag_end_of_stream packet;
        Port.send o.port ~producer:o.rank ~consumer packet)
      o.packets

(* The producer half of exchange: "the driver for the query tree below the
   exchange operator" (section 4.1).  Runs as a forked task; [produce]
   drives [source] until it is exhausted or the port shuts down, then
   flags every consumer's last packet with end-of-stream. *)
let produce cfg faults port group (source : Batch.cursor) =
  let rank = Group.rank group in
  let consumers = Port.consumers port in
  let out = outbox port ~rank ~capacity:cfg.packet_size in
  let partition = instantiate_partition cfg.partition ~consumers in
  (* Hoisted: the injector does nothing without rules, and this check
     runs once per record. *)
  let faults_live = not (Injector.is_none faults) in
  (* The router the drive loop emits each record into. *)
  let route tuple =
    if faults_live then Injector.hit faults (Volcano_fault.Producer rank);
    match cfg.partition with
    | Broadcast ->
        (* Replicate to all consumers.  Tuples are immutable and shared by
           reference — the analogue of pinning the record once per
           consumer rather than copying it (section 4.4). *)
        for consumer = 0 to consumers - 1 do
          deliver out consumer tuple
        done
    | Round_robin | Hash_on _ | Range_on _ | Custom _ ->
        deliver out (partition tuple) tuple
  in
  source.reset ();
  (* The one drive loop, for record and fused subtrees alike: a step
     routes a batch of source records straight into port packets, and the
     packets it filled go out after it — the fused loop makes no port
     call, and a producer sends its first packets only after a whole
     batch of records ran through the chain.  The shutdown check runs
     once per step (at most one batch of records is routed into dropped
     sends after a shutdown). *)
  let rec drive () =
    if not (Port.is_shut_down port) then begin
      let stepped = source.step ~emit:route ~max:Batch.default_size in
      send_filled out;
      if stepped > 0 then drive ()
    end
  in
  drive ();
  finish out

(* A producer closes its own subtree once its end-of-stream packets are
   out.  The paper's producer first "waits until the consumer allows
   closing all open files" (section 4.1); here a record in a packet is a
   decoded copy, never a view of a buffer frame, so the close frees
   nothing a consumer holds.  A producer that dies poisons the port —
   waking blocked consumers and cancelling siblings and descendant ports
   through the shutdown chain — then closes the subtree; the consumer
   re-raises the cause from its [next] as [Query_failed]. *)
let run_producer cfg faults port group input =
  let opened = ref None in
  try
    (* Fires at the very start of the scheduled task, before the subtree
       even opens — a failure here must still poison the port. *)
    Injector.hit faults Volcano_fault.Sched_task;
    let source = input group in
    opened := Some source;
    produce cfg faults port group source;
    opened := None;
    source.stop ()
  with exn ->
    Port.poison port exn;
    (* Siblings may be blocked in [Group.lookup_port] for a nested port
       this rank was about to publish (its open died first); nothing else
       would ever wake them.  Poison first so the consumer reports the
       original failure, not the siblings' [Group.Cancelled]. *)
    Group.cancel group;
    Option.iter
      (fun (source : Batch.cursor) -> try source.stop () with _ -> ())
      !opened;
    raise exn

(* children_of r: ranks this producer forks in the propagation-tree scheme
   (section 4.2): in round k the processes with rank < 2^k fork rank + 2^k. *)
let children_of rank size =
  let rec collect k acc =
    let stride = 1 lsl k in
    if rank + stride >= size then List.rev acc
    else if stride > rank then collect (k + 1) ((rank + stride) :: acc)
    else collect (k + 1) acc
  in
  collect 0 []

module For_testing = struct
  let children_of = children_of
end

(* Fork the producer group as scheduler tasks; returns their joiner.  The
   joiner awaits every task and never raises: a failed producer already
   reported through the poisoned port. *)
let spawn_producers sched cfg faults input port =
  let shared = Group.make_shared ~size:cfg.degree in
  let run rank =
    run_producer cfg faults port (Group.attach shared ~rank) input
  in
  match cfg.fork_mode with
  | Fork_central ->
      let tasks =
        List.init cfg.degree (fun rank -> spawn_task sched (fun () -> run rank))
      in
      fun () -> List.iter join_quiet tasks
  | Fork_tree ->
      let rec subtree rank () =
        let spawned =
          List.map
            (fun child -> spawn_task sched (subtree child))
            (children_of rank cfg.degree)
        in
        (* Join the forked children even when this rank dies, or their
           tasks would leak on a mid-tree failure. *)
        Fun.protect
          ~finally:(fun () -> List.iter join_quiet spawned)
          (fun () -> run rank)
      in
      let root = spawn_task sched (subtree 0) in
      fun () -> join_quiet root

(* The feeders of a remote exchange: one task per transport source pumps
   pulled packets into the local port, so [next], EOS counting,
   poisoning, and the shutdown chain are exactly the shared-memory code
   paths.  A pull that waits for the wire suspends the feeder like any
   other wait (the socket lane reads through [Sched.wait_fd]).
   Backpressure is end-to-end for free: a full lane ring suspends the
   feeder's send, the feeder stops pulling, and the kernel socket buffer
   pushes back on the worker's writes.  Returns the joiner: feeders
   first, then the sources (reaping worker processes). *)
let spawn_feeders sched sources port =
  let consumers = Port.consumers port in
  let feed rank (src : Port.Transport.source) () =
    (* Whole packets round-robin across consumers: the workers already
       sharded the data, so the wire edge is a merge and any consumer may
       take any packet. *)
    let next_consumer = ref 0 in
    (* A shell comes from the lane its packet is sent on — and, once the
       consumer is done with it, recycled into. *)
    let routed dest =
      if dest >= 0 && dest < consumers then dest
      else
        invalid_arg
          (Printf.sprintf "Exchange: packet routed to consumer %d of %d" dest
             consumers)
    in
    let alloc ~dest ~capacity =
      let consumer =
        match dest with None -> !next_consumer | Some d -> routed d
      in
      Port.alloc port ~producer:rank ~consumer ~capacity
    in
    let rec pump () =
      if not (Port.is_shut_down port) then
        match src.pull ~alloc with
        | Port.Transport.Data packet ->
            let consumer = !next_consumer in
            next_consumer := (consumer + 1) mod consumers;
            Port.send port ~producer:rank ~consumer packet;
            pump ()
        | Port.Transport.Routed (dest, packet) ->
            (* A repartitioning edge: the worker already applied the
               partition function, so the packet is pinned to its
               destination consumer instead of merged round-robin. *)
            Port.send port ~producer:rank ~consumer:(routed dest) packet;
            pump ()
        | Port.Transport.Eos ->
            (* Every consumer counts one EOS tag per producer, as in the
               local exchange. *)
            for consumer = 0 to consumers - 1 do
              let packet =
                Port.alloc port ~producer:rank ~consumer ~capacity:1
              in
              Packet.tag_end_of_stream packet;
              Port.send port ~producer:rank ~consumer packet
            done
        | Port.Transport.Failed origin ->
            raise
              (as_query_failed
                 ~fallback:(Printf.sprintf "net-worker-%d" rank)
                 origin)
    in
    try pump ()
    with exn -> (
      (* First failure wins; a dropped connection or a shipped worker
         failure surfaces at the consumer's next as one [Query_failed]. *)
      Port.poison port exn;
      try src.cancel () with _ -> ())
  in
  let feeders =
    Array.to_list
      (Array.mapi (fun rank src -> spawn_task sched (feed rank src)) sources)
  in
  fun () ->
    List.iter join_quiet feeders;
    Array.iter
      (fun (s : Port.Transport.source) -> try s.join () with _ -> ())
      sources

(* ------------------------------------------------------------------ *)
(* Consumer side: one port setup, one packet cursor, one [next]         *)

let obs_sample port ~spawn_s ~join_s ~tasks =
  {
    Obs.packets_sent = Port.packets_sent port;
    packets_received = Port.packets_received port;
    records = Port.records_sent port;
    max_queue_depth = Port.max_depth port;
    flow_waits = Port.flow_stalls port;
    flow_wait_s = Port.flow_stall_s port;
    per_producer = Port.packets_sent_by port;
    pool_allocated = Port.pool_allocated port;
    pool_reused = Port.pool_reused port;
    pool_recycled = Port.pool_recycled port;
    spawn_s;
    join_s;
    tasks;
  }

(* The port setup every consumer face shares.  The group master creates
   the port, registers it on [parent_scope], chains its shutdown into
   [cancel] (a face's own stop for what feeds the port) and [scope], runs
   [start] — which forks the [producers] and returns their joiner —
   registers the obs sample, and publishes the port under [id].  Every
   other member looks the published port up and gets no joiner.  Without
   [start] nothing is forked (the no-fork interchange): its sample reports
   zero tasks and zero spawn/join time. *)
let open_port ?(keep_separate = false) ?flow_slack ?(cancel = ignore) ?start
    ~faults ?parent_scope ?scope ?obs ~id ~group ~producers () =
  if not (Group.is_master group) then (Group.lookup_port group ~key:id, None)
  else begin
    let on_shutdown () =
      cancel ();
      Option.iter Scope.cancel scope
    in
    let port =
      Port.create ~producers ~consumers:(Group.size group) ?flow_slack
        ~keep_separate ~faults ~on_shutdown ~timed:(Option.is_some obs) ()
    in
    Option.iter (fun s -> Scope.register s port) parent_scope;
    let spawn_t0 = if Option.is_some obs then Obs.now () else 0.0 in
    let joiner = Option.map (fun start -> start port) start in
    let joiner =
      match obs with
      | None -> joiner
      | Some (sink, node) ->
          let spawn_s, tasks =
            match joiner with
            | Some _ -> (Obs.now () -. spawn_t0, producers)
            | None -> (0.0, 0)
          in
          let join_s = ref 0.0 in
          Obs.register_exchange sink ~node ~sample:(fun () ->
              obs_sample port ~spawn_s ~join_s:!join_s ~tasks);
          Option.map
            (fun join () ->
              let t0 = Obs.now () in
              join ();
              join_s := !join_s +. (Obs.now () -. t0))
            joiner
    in
    Group.publish_port group ~key:id port;
    (port, joiner)
  end

(* One consumer's read position in a port: the packet being unwrapped and
   the end-of-stream tags seen so far.  [ends] tags finish the stream —
   one per producer on a merged port, one on a keep-separate stream.
   [refill] runs whenever the buffered packet is exhausted; every face but
   the interchange blocks on the port there ({!receive}).  [site] names a
   consumer-side failure. *)
type cursor = {
  port : Port.t;
  ends : int;
  site : string;
  refill : cursor -> Volcano_tuple.Tuple.t option;
  recycle : Packet.t -> unit;
  mutable current : Packet.t option;
  mutable pos : int;
  mutable eos_tags : int;
  mutable finished : bool;
}

let cursor port ~ends ~site ~recycle refill =
  {
    port;
    ends;
    site;
    refill;
    recycle;
    current = None;
    pos = 0;
    eos_tags = 0;
    finished = false;
  }

let rec step c =
  match c.current with
  | Some packet when c.pos < Packet.length packet ->
      let tuple = Packet.get packet c.pos in
      c.pos <- c.pos + 1;
      Some tuple
  | Some packet ->
      if Packet.end_of_stream packet then c.eos_tags <- c.eos_tags + 1;
      c.current <- None;
      (* Drained: hand the packet back to its lane's pool.  All tuples were
         already yielded by reference, so only the array shell is
         reused. *)
      c.recycle packet;
      step c
  | None ->
      if c.finished then None
      else if c.eos_tags >= c.ends then begin
        c.finished <- true;
        None
      end
      else c.refill c

let load c packet =
  c.current <- Some packet;
  c.pos <- 0;
  step c

(* The port shut down and is drained: either cancellation (the stream just
   ends) or a poisoned port — then the failure that killed it surfaces
   here, as a single well-typed exception. *)
let ended c ~site =
  c.finished <- true;
  match Port.failure c.port with
  | Some origin -> raise (as_query_failed ~fallback:site origin)
  | None -> None

let receive recv c =
  match recv () with
  | Some packet -> load c packet
  | None -> ended c ~site:"producer"

(* The [next] of every consumer face.  A consumer-side failure (an
   injected receive fault, a fault while parked, a dying interchange
   input) poisons the port — cancelling producers and peers instead of
   leaving them pumping or blocked on this member — and surfaces as one
   [Query_failed]. *)
let next c =
  match step c with
  | result -> result
  | exception exn ->
      c.finished <- true;
      Port.poison c.port exn;
      raise (as_query_failed ~fallback:c.site exn)

(* A consumer face over a merged port — local and remote exchange alike:
   [setup] opens the port at [open_], and [next] drains this member's
   lanes round-robin until every producer's end-of-stream tag arrived. *)
let merged_iterator ~what ~group setup =
  let state = ref None in
  Iterator.make
    ~open_:(fun () ->
      let port, joiner = setup () in
      let consumer = Group.rank group in
      let c =
        cursor port ~ends:(Port.producers port) ~site:"consumer"
          ~recycle:(Port.recycle port ~consumer)
          (receive (fun () -> Port.receive port ~consumer))
      in
      state := Some (c, joiner))
    ~next:(fun () ->
      match !state with
      | Some (c, _) -> next c
      | None -> invalid_arg (what ^ ": not open"))
    ~close:(fun () ->
      (* Tolerate a close without a successful open: failing operators
         close their inputs best-effort while unwinding, and an exchange
         that never opened has nothing to tear down. *)
      match !state with
      | None -> ()
      | Some (c, joiner) ->
          (match joiner with
          | Some join ->
              (* The master, on early close, cancels the producers.  The
                 shutdown releases any flow-control slack they are blocked
                 on and (via the shutdown chain) cancels every descendant
                 port — a producer stuck in a deeper receive must observe
                 the cancellation too.  After a normal end-of-stream the
                 port must NOT be shut: sibling consumers may still be
                 draining their queues, and producers stop sending the
                 moment they see the port down. *)
              if not c.finished then Port.shutdown c.port;
              join ()
          | None -> ());
          state := None)

let source_iterator ?id ?(faults = Injector.none) ?parent_scope ?scope ?obs
    ?sched cfg ~group ~input =
  let id = match id with Some i -> i | None -> fresh_id () in
  let sched = match sched with Some s -> s | None -> Sched.default () in
  merged_iterator ~what:"Exchange.iterator" ~group (fun () ->
      open_port ?flow_slack:cfg.flow_slack
        ~start:(spawn_producers sched cfg faults input)
        ~faults ?parent_scope ?scope ?obs ~id ~group ~producers:cfg.degree ())

let iterator ?id ?faults ?parent_scope ?scope ?obs ?sched cfg ~group ~input =
  source_iterator ?id ?faults ?parent_scope ?scope ?obs ?sched cfg ~group
    ~input:(fun producer_group ->
      Batch.iterator_cursor (input producer_group))

(* The consumer half of exchange when the producer group lives behind
   {!Port.Transport.source}s — worker processes on the far side of a
   socket, or any other carrier — fed into the local port by
   {!spawn_feeders}. *)
let remote_iterator ?id ?(faults = Injector.none) ?parent_scope ?scope ?obs
    ?sched cfg ~group ~connect =
  let id = match id with Some i -> i | None -> fresh_id () in
  let sched = match sched with Some s -> s | None -> Sched.default () in
  merged_iterator ~what:"Exchange.remote_iterator" ~group (fun () ->
      (* Only the master connects; the other members attach to its port. *)
      let sources =
        if not (Group.is_master group) then [||]
        else
          match (connect () : Port.Transport.source array) with
          | exception exn ->
              (* A refused connection is the same single error a producer
                 dying at fork time is. *)
              raise (as_query_failed ~fallback:"net-connect" exn)
          | [||] ->
              invalid_arg "Exchange.remote_iterator: connect returned no sources"
          | sources -> sources
      in
      (* Cancellation chaining across the machine boundary: shutting this
         port must stop the remote producers (best-effort cancel frames +
         closed sockets) exactly as it cancels local descendant ports. *)
      let cancel () =
        Array.iter
          (fun (s : Port.Transport.source) -> try s.cancel () with _ -> ())
          sources
      in
      open_port ?flow_slack:cfg.flow_slack ~cancel
        ~start:(spawn_feeders sched sources)
        ~faults ?parent_scope ?scope ?obs ~id ~group
        ~producers:(Array.length sources) ())

(* Keep-separate variant: one stream per producer, so that "the merge
   iterator [can] distinguish the input records by their producer"
   (section 4.4).  The streams share setup and teardown: the first
   [open_] wins [elected] and puts the port (or its failure) into
   [shared]; the others read it, and the last [close] tears down.
   [open_port] can suspend the opener (a non-master rank waits for the
   master's port publication), so no lock may be held around it; in
   practice all [degree] streams are opened by the one consumer fiber
   that merges them, so no stream ever waits on [shared]. *)
let producer_streams ?id ?(faults = Injector.none) ?parent_scope ?scope ?obs
    ?sched cfg ~group ~input =
  let id = match id with Some i -> i | None -> fresh_id () in
  let sched = match sched with Some s -> s | None -> Sched.default () in
  let elected = Atomic.make false in
  let shared = Sched.Ivar.create () in
  let closed = Atomic.make 0 in
  let ensure_open () =
    if Atomic.compare_and_set elected false true then
      ignore
        (Sched.Ivar.fill shared
           (match
              open_port ~keep_separate:true ?flow_slack:cfg.flow_slack
                ~start:
                  (spawn_producers sched cfg faults (fun producer_group ->
                       Batch.iterator_cursor (input producer_group)))
                ~faults ?parent_scope ?scope ?obs ~id ~group
                ~producers:cfg.degree ()
            with
           | opened -> Ok opened
           | exception exn -> Error exn)
          : bool);
    match Sched.Ivar.read shared with
    | Ok opened when Atomic.get closed < cfg.degree -> opened
    | Ok _ -> invalid_arg "Exchange.producer_streams: re-opened after close"
    | Error exn -> raise exn
  in
  let all_finished = Array.make cfg.degree false in
  let release () =
    if Atomic.fetch_and_add closed 1 = cfg.degree - 1 then
      match Sched.Ivar.peek shared with
      | Some (Ok (port, joiner)) ->
          if Array.exists not all_finished then Port.shutdown port;
          Option.iter (fun join -> join ()) joiner
      | Some (Error _) | None -> ()
  in
  Array.init cfg.degree (fun producer ->
      let stream = ref None in
      Iterator.make
        ~open_:(fun () ->
          let port, _ = ensure_open () in
          let consumer = Group.rank group in
          (* Exactly one end-of-stream tag arrives on this producer's
             lane. *)
          stream :=
            Some
              (cursor port ~ends:1 ~site:"consumer"
                 ~recycle:(Port.recycle port ~consumer)
                 (receive (fun () -> Port.receive_from port ~producer ~consumer))))
        ~next:(fun () ->
          match !stream with
          | Some c -> next c
          | None -> invalid_arg "Exchange.producer_streams: not open")
        ~close:(fun () ->
          (match !stream with
          | Some c -> if c.finished then all_finished.(producer) <- true
          | None -> ());
          stream := None;
          release ()))

(* ------------------------------------------------------------------ *)
(* No-fork interchange (section 4.4)                                   *)

let interchange ?id ?(faults = Injector.none) ?parent_scope ?scope ?obs cfg
    ~group ~input =
  let id = match id with Some i -> i | None -> fresh_id () in
  let rank = Group.rank group in
  let size = Group.size group in
  let state = ref None in
  Iterator.make
    ~open_:(fun () ->
      let partition =
        match cfg.partition with
        | Broadcast ->
            invalid_arg "Exchange.interchange: broadcast not supported"
        | spec -> instantiate_partition spec ~consumers:size
      in
      (* Flow control is pointless here: a process produces only when it
         has nothing to consume. *)
      let port, _ =
        open_port ~faults ?parent_scope ?scope ?obs ~id ~group ~producers:size
          ()
      in
      Iterator.open_ input;
      let out = outbox port ~rank ~capacity:cfg.packet_size in
      let input_done = ref false in
      (* The no-fork refill rule: prefer packets already queued for this
         process; otherwise run the producer — pull own input and route
         records to peer packets — and return as soon as one lands here;
         once the input is exhausted, block for the peers' packets. *)
      let rec drive c =
        if Port.is_shut_down port then
          (* Cancellation or a peer's failure: stop driving the input —
             routed sends are dropped anyway, so an unbounded input would
             spin here forever. *)
          ended c ~site:"interchange"
        else
          match Port.try_receive port ~consumer:rank with
          | Some packet -> load c packet
          | None when !input_done -> (
              match Port.receive port ~consumer:rank with
              | Some packet -> load c packet
              | None -> ended c ~site:"interchange")
          | None -> (
              match Iterator.next input with
              | Some tuple ->
                  let consumer = partition tuple in
                  if consumer = rank then Some tuple
                  else begin
                    deliver out consumer tuple;
                    send_filled out;
                    drive c
                  end
              | None ->
                  input_done := true;
                  finish out;
                  step c)
      in
      (* Every member is a producer here: a member whose input dies
         poisons the shared port through {!next}, or its peers would block
         forever waiting for this member's packets. *)
      state :=
        Some
          (cursor port ~ends:size ~site:"interchange"
             ~recycle:(Port.recycle port ~consumer:rank)
             drive))
    ~next:(fun () ->
      match !state with
      | Some c -> next c
      | None -> invalid_arg "Exchange.interchange: not open")
    ~close:(fun () ->
      (match !state with
      | Some c ->
          (* Any member closing an unfinished interchange cancels the whole
             group: peers block on each other's packets, so a silent
             departure — master or not — would strand them. *)
          if not c.finished then Port.shutdown c.port
      | None -> ());
      Iterator.close input;
      state := None)
