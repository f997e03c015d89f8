(** Ports: the shared-memory data structures through which producer and
    consumer process groups exchange packets (paper, section 4.1).

    Every (producer, consumer) pair owns a dedicated single-producer
    single-consumer lane.  With flow control on, a lane is a bounded
    lock-free ring whose capacity {e is} the flow-control slack: "the
    initial value of the flow control semaphore, e.g., 4, determines how
    many packets the producers may get ahead of the consumers" — here the
    slack bounds each producer-consumer pair rather than a shared queue,
    so the uncontended send is two atomic operations and no lock.  With
    flow control off the lane is an unbounded striped queue (the no-fork
    interchange needs producers to run unboundedly ahead).

    In {e keep-separate} mode (the merge-network variant of section 4.4)
    consumers read lanes individually via {!receive_from}; otherwise
    {!receive} polls all of the consumer's lanes round-robin.

    Dataflow through a port is data-driven (eager): producers push without
    request messages; consumers block on arrival.  A blocked party never
    busy-waits: it parks at once through {!Volcano_sched.Sched.suspend} —
    a pool fiber yields its worker, any other caller blocks on a gate of
    its own.  A parked producer is woken on every slot its consumer
    frees; wakeups on shutdown are exact — each waiter's own waker is
    fired once. *)

type t

val create :
  producers:int ->
  consumers:int ->
  ?flow_slack:int ->
  ?keep_separate:bool ->
  ?faults:Volcano_fault.Injector.t ->
  ?on_shutdown:(unit -> unit) ->
  ?timed:bool ->
  unit ->
  t
(** [flow_slack] enables flow control ([None] disables it, the paper's
    run-time switch) and is the exact ring capacity of each
    producer-consumer lane.  [keep_separate] requires consumers to use
    {!receive_from}.  [faults] is consulted at the [Port_send] and
    [Port_receive] sites.  [on_shutdown] runs exactly once, on the first
    {!shutdown} (or {!poison}) — exchange uses it to cancel descendant
    ports so that processes blocked deep inside a pipeline observe the
    cancellation.  [timed] (profiling) additionally clocks the time
    senders spend blocked on flow control; untimed ports never read the
    clock. *)

val producers : t -> int
val consumers : t -> int
val keep_separate : t -> bool

val send : t -> producer:int -> consumer:int -> Packet.t -> unit
(** Insert a packet, blocking on flow control (a full lane ring) if
    enabled.  After {!shutdown} this becomes a no-op (the packet is
    dropped). *)

val receive : t -> consumer:int -> Packet.t option
(** Next packet for the consumer, blocking until one arrives.  Polls the
    consumer's producer lanes round-robin.  In keep-separate mode use
    {!receive_from}.  [None] after {!shutdown} once the lanes are
    drained. *)

val receive_from : t -> producer:int -> consumer:int -> Packet.t option
(** Next packet from one specific producer — the "third argument to
    next-exchange" that merge networks need. *)

val try_receive : t -> consumer:int -> Packet.t option
(** Non-blocking variant; [None] when all lanes are momentarily empty
    (used by the no-fork interchange variant). *)

val shutdown : t -> unit
(** Early termination: wake all blocked senders and receivers; subsequent
    sends are dropped and receives return [None] once drained. *)

val poison : t -> exn -> unit
(** {!shutdown}, additionally recording the exception that killed the
    stream.  The first poisoning wins; consumers that drain the port learn
    the cause from {!failure} and re-raise it as
    {!Exchange.Query_failed}. *)

val failure : t -> exn option
(** The recorded failure, if the port was poisoned. *)

val is_shut_down : t -> bool

(** {2 Packet recycling}

    Each lane carries a pool that recycles drained packets from the
    consumer back to its producer, so steady-state transfer reuses the
    same few record arrays instead of allocating one per packet. *)

val alloc : t -> producer:int -> consumer:int -> capacity:int -> Packet.t
(** A packet for [producer] to fill and {!send} towards [consumer] —
    recycled when the lane's pool has one, fresh otherwise.  Producer
    side only. *)

val recycle : t -> consumer:int -> Packet.t -> unit
(** Return a fully drained packet to its lane's pool.  The caller must
    not touch the packet afterwards: the producer may refill it
    immediately.  Consumer side only; packets from foreign ports are
    ignored safely only if their producer rank is out of range, so only
    recycle packets received from this port. *)

(** {2 Instrumentation} *)

val packets_sent : t -> int

val packets_received : t -> int
(** Packets delivered to consumers.  After a full drain of a healthy
    stream this equals {!packets_sent}; the difference is packets still
    queued (or dropped by a shutdown). *)

val records_sent : t -> int

val max_depth : t -> int
(** Highest number of packets ever queued at once in any single lane —
    the observable effect of flow-control slack (ablation A1).  Bounded
    by [flow_slack] when flow control is on. *)

val packets_sent_by : t -> int array
(** Packets sent per producer rank — the skew view of {!packets_sent}. *)

val flow_stalls : t -> int
(** Sends that found their lane ring full and had to wait. *)

val flow_stall_s : t -> float
(** Total sender time spent blocked on flow control.  Only accumulated on
    [timed] ports; 0 otherwise. *)

val pool_allocated : t -> int
(** Fresh packets created by {!alloc} across all lanes. *)

val pool_reused : t -> int
(** {!alloc} calls served from a lane pool's free ring. *)

val pool_recycled : t -> int
(** Packets accepted back into a lane pool by {!recycle}. *)

(** {2 Transport abstraction}

    A {e transport source} is one producer's packet stream viewed from the
    consumer side, independent of what carries it — the socket lane of
    [Volcano_net] is the implementation.  Remote exchange consumes sources
    only and pumps them into a local port, so EOS, failure, and
    cancellation flow exactly as they do for a producer that shares the
    address space. *)
module Transport : sig
  exception Remote_failure of { site : string; message : string }
  (** A producer-side failure that crossed a serialization boundary: the
      original exception cannot be shipped, so the wire carries its fault
      [site] and rendered [message].  [Exchange.as_query_failed] maps this
      to the same [Query_failed] a local producer's death produces. *)

  type event =
    | Data of Packet.t  (** a packet; ownership passes to the consumer *)
    | Routed of int * Packet.t
        (** a packet pinned to consumer [dest] by a repartitioning remote
            producer; a merge edge never emits this *)
    | Eos  (** clean end of this producer's stream *)
    | Failed of exn  (** the producer died; the stream is truncated *)

  type source = {
    pull : alloc:(dest:int option -> capacity:int -> Packet.t) -> event;
        (** Block until the next event.  [alloc] lets the transport fill a
            recycled packet shell instead of allocating (wire transports
            deserialize into it; the in-memory lane ignores it).  [dest]
            is the consumer a [Routed] packet is pinned to, read from the
            frame before the shell is asked for, so the shell comes from
            the lane that packet will be recycled into; [None] for a
            [Data] packet.  After [Eos] or [Failed], further pulls return
            the same event. *)
    cancel : unit -> unit;
        (** Consumer-initiated early termination (idempotent, non-blocking
            best effort): stop the producer and release its resources. *)
    join : unit -> unit;
        (** Wait for the transport's resources (worker process, socket) to
            be fully released.  Call after [cancel] or a terminal event. *)
    narrow : int list -> unit;
        (** Ship only these columns of each record, in this order: the
            producer projects every record before it routes and encodes
            it, so routed packets are keyed on the narrow layout.  Called
            at most once, before the first [pull]; a source never
            narrowed ships whole records. *)
  }
end
