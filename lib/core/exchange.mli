(** The exchange operator — the paper's contribution.

    Exchange is itself an iterator, so "it can be inserted at any one place
    or at multiple places in a complex query tree" (section 4).  It
    encapsulates all three forms of parallelism:

    - {e vertical} (pipelining): the consumer side is an ordinary iterator
      while the producer side, running in freshly forked processes, becomes
      the data-driven driver of the subtree below;
    - {e bushy}: two exchanges under a binary operator let both inputs be
      computed concurrently;
    - {e intra-operator}: [degree > 1] producers partition their output
      across the consumer group with a partitioning support function.

    Variants from section 4.4 are all here: {e broadcast} (replicate the
    stream to every consumer), {e keep-separate} producer streams for merge
    networks ({!producer_streams}), and the {e no-fork interchange} that
    lives in the middle of a process's operator tree and turns the process
    into both producer and consumer ({!interchange}).

    Everything below the exchange runs unchanged single-process code: this
    module alone performs the translation between demand-driven dataflow
    within a process and data-driven dataflow between processes.

    "Processes" are tasks on a {!Volcano_sched.Sched} scheduler (shared
    memory, like the paper's Sequent processes): producers are closures
    submitted to a fixed pool of worker domains.  Every blocking wait of
    an exchange — a full lane, an empty sink, an unpublished port, a
    producer join — is one {!Volcano_sched.Sched.suspend}: a pool fiber
    yields its worker, and the query's root thread blocks on a gate made
    for that wait.  A remote exchange's feeders are tasks too.
    Their socket reads wait through {!Volcano_sched.Sched.wait_fd}, so
    no query starts a domain of its own.

    {2 Failure semantics}

    A failure anywhere in a parallel plan — a producer task dying, a
    consumer-side fault, an injected error from {!Volcano_fault} —
    surfaces at the consuming [next] as a single {!Query_failed} carrying
    the original exception and the site that raised it.  The failing
    process poisons its port, which wakes every blocked peer, cancels
    sibling producers, and (through cancellation {!Scope}s chained across
    nested exchanges) shuts every descendant port so processes blocked
    deep inside the pipeline observe the cancellation.  Teardown then
    joins every producer task and closes every subtree iterator, so no
    task and no buffer fix outlives the failed query. *)

exception Query_failed of { site : string; origin : exn }
(** The one exception a consumer sees when a parallel query dies: [site]
    names where the failure originated (a {!Volcano_fault.site} name, or
    ["producer"] / ["consumer"] / ["interchange"]), [origin] is the
    undisturbed original exception.  Never nested: a failure crossing
    several exchanges keeps its innermost site. *)

val as_query_failed : fallback:string -> exn -> exn
(** Normalize an exception to {!Query_failed} — idempotent, and maps
    {!Volcano_fault.Injected} to its site name. *)

(** Cancellation scopes: a scope collects the ports created below one
    exchange; shutting that exchange's port cancels the scope, which
    shuts the registered descendant ports, recursively.  Compiled plans
    thread a child scope into each exchange node. *)
module Scope : sig
  type t

  val create : unit -> t

  val register : t -> Port.t -> unit
  (** Registering on an already-cancelled scope shuts the port at once. *)

  val cancel : t -> unit
  (** Shut every registered port (each chains into its own scope).  Runs
      the shutdowns at most once. *)

  val poison : t -> exn -> unit
  (** Like {!cancel}, but poison the registered ports so consumers report
      [exn] (as {!Query_failed}) instead of ending their streams quietly —
      the entry point for runtime-initiated cancellation of a whole query.
      Ports registered after the poisoning are poisoned on arrival. *)
end

type partition_spec =
  | Round_robin
  | Hash_on of int list  (** hash-partition on these columns *)
  | Range_on of int * Volcano_tuple.Value.t array
      (** range-partition on a column given ascending split bounds *)
  | Custom of Volcano_tuple.Support.Partition.t
  | Broadcast  (** replicate every record to every consumer (section 4.4) *)

type fork_mode =
  | Fork_tree  (** propagation-tree forking (section 4.2, after Gerber) *)
  | Fork_central  (** master forks every producer itself *)

type config = private {
  degree : int;  (** number of producer processes *)
  packet_size : int;  (** records per packet, 1..255; default 83 *)
  flow_slack : int option;
      (** [Some n] enables flow control with [n] slack packets *)
  partition : partition_spec;
  fork_mode : fork_mode;
}
(** Private: a [config] can only come from the validating {!config}
    constructor, so every value in circulation has already passed
    {!validate} — planlint needs no scalar-field checks of its own. *)

val config :
  ?degree:int ->
  ?packet_size:int ->
  ?flow_slack:int option ->
  ?partition:partition_spec ->
  ?fork_mode:fork_mode ->
  unit ->
  config
(** Defaults: degree 1, packet size 83, flow control with 4 slack packets,
    round-robin partitioning, tree forking.

    Raises [Invalid_argument] on a config that could only fail at fork
    time, deep inside a producer task: [degree < 1], [packet_size]
    outside [1, 255] (the paper's one-byte field), or a non-positive
    flow-control slack — the first problem {!validate} reports. *)

val validate :
  degree:int ->
  packet_size:int ->
  flow_slack:int option ->
  (string * string) list
(** The single validation path behind {!config}, exposed for checking
    not-yet-constructed configurations.  Returns
    [(code, message)] diagnoses — codes ["exchange-degree"],
    ["exchange-packet-size"], ["exchange-flow-slack"] — or [[]] when the
    combination is acceptable. *)

val fresh_id : unit -> int
(** Allocate an exchange instance key.  All consumers of one logical
    exchange (one per member of the consuming group) must share the key so
    that non-master members find the master's port. *)

val source_iterator :
  ?id:int ->
  ?faults:Volcano_fault.Injector.t ->
  ?parent_scope:Scope.t ->
  ?scope:Scope.t ->
  ?obs:Volcano_obs.Obs.t * Volcano_obs.Obs.Node.t ->
  ?sched:Volcano_sched.Sched.t ->
  config ->
  group:Group.t ->
  input:(Group.t -> Batch.cursor) ->
  Iterator.t
(** {!iterator} over a cursor source: each producer task evaluates
    [input] and steps the cursor, {!Batch.default_size} source records
    per step, routing every record straight into port packets and
    sending the packets a step filled after it — a fused subtree has no
    per-record closure hop, and {!iterator} wraps its record input with
    {!Batch.iterator_cursor}.  Records cross the domain boundary only
    inside port packets.  The consumer side is identical. *)

val iterator :
  ?id:int ->
  ?faults:Volcano_fault.Injector.t ->
  ?parent_scope:Scope.t ->
  ?scope:Scope.t ->
  ?obs:Volcano_obs.Obs.t * Volcano_obs.Obs.Node.t ->
  ?sched:Volcano_sched.Sched.t ->
  config ->
  group:Group.t ->
  input:(Group.t -> Iterator.t) ->
  Iterator.t
(** The exchange iterator for the calling process (one member of the
    consuming group).  On [open_], the group master creates the port and
    forks the producer group as tasks on [sched] (default
    {!Volcano_sched.Sched.default}); each producer evaluates [input] —
    in its own task, with its own group context — and drives it, pushing
    packets, and closes its subtree once its stream is sent.  [next]
    returns records as they arrive; [close] on the master joins the
    producers (closing before end-of-stream cancels them first).  Other
    group members attach to the master's port and close locally.

    [obs] (a sink and this exchange's plan node) turns on deep
    instrumentation: the port is created timed (flow-control stalls are
    clocked), and a sample of its packet/stall/spawn/join counters is
    registered with the sink for the profile report. *)

val remote_iterator :
  ?id:int ->
  ?faults:Volcano_fault.Injector.t ->
  ?parent_scope:Scope.t ->
  ?scope:Scope.t ->
  ?obs:Volcano_obs.Obs.t * Volcano_obs.Obs.Node.t ->
  ?sched:Volcano_sched.Sched.t ->
  config ->
  group:Group.t ->
  connect:(unit -> Port.Transport.source array) ->
  Iterator.t
(** The consumer half of exchange when the producer group lives behind
    {!Port.Transport.source}s — worker processes across a socket
    ([Volcano_net]).  On the master's [open_], [connect] establishes one
    source per remote producer (a refused connection raises
    {!Query_failed} at site ["net-connect"]); one feeder task per source,
    forked on [sched] (default {!Volcano_sched.Sched.default}), pumps
    pulled packets into a local port, so [next], EOS
    counting, flow control, and the failure semantics are exactly the
    shared-memory paths: a dropped connection or a shipped worker failure
    surfaces as the same single {!Query_failed} a dead local producer
    produces, and closing early (or a runtime cancel through the scopes)
    cancels the sources, which sends best-effort cancel frames and closes
    the sockets.  [close] joins the feeder tasks and the sources
    (reaping worker processes).  The partition spec of [cfg] is not
    re-applied on the wire edge: workers already sharded the data, so
    packets merge round-robin across the consuming group. *)

val producer_streams :
  ?id:int ->
  ?faults:Volcano_fault.Injector.t ->
  ?parent_scope:Scope.t ->
  ?scope:Scope.t ->
  ?obs:Volcano_obs.Obs.t * Volcano_obs.Obs.Node.t ->
  ?sched:Volcano_sched.Sched.t ->
  config ->
  group:Group.t ->
  input:(Group.t -> Iterator.t) ->
  Iterator.t array
(** The merge-network variant: [degree] iterators, one per producer, whose
    records are kept separate so a merge iterator can consume sorted runs
    producer-by-producer.  The streams share one port and one producer
    group; the first [open_] performs setup, the last [close] tears down. *)

val interchange :
  ?id:int ->
  ?faults:Volcano_fault.Injector.t ->
  ?parent_scope:Scope.t ->
  ?scope:Scope.t ->
  ?obs:Volcano_obs.Obs.t * Volcano_obs.Obs.Node.t ->
  config ->
  group:Group.t ->
  input:Iterator.t ->
  Iterator.t
(** The no-fork variant (section 4.4): the exchange lives in the middle of
    this process's operator tree, making every group member both a producer
    and a consumer.  [next] first serves packets already queued for this
    process; otherwise it drives its own input, routing records to peer
    queues until one lands in its own partition.  No processes are forked
    and flow control is unnecessary: "a process runs a producer only if it
    does not have input for the consumer". *)

(** {2 Instrumentation}

    The task ledger: producer and feeder tasks forked by exchanges. *)

val tasks_spawned : unit -> int
(** Total exchange tasks forked so far (tests, spawn ablation). *)

val tasks_joined : unit -> int
(** Total exchange tasks joined so far.  Equal to {!tasks_spawned}
    whenever no query is running — the chaos harness asserts the
    difference is zero after every run, failed or not. *)

val live_tasks : unit -> int
(** Exchange tasks whose body is still executing. *)

val unjoined_tasks : unit -> int
(** [tasks_spawned () - tasks_joined ()]. *)

(**/**)

module For_testing : sig
  val children_of : int -> int -> int list
  (** Ranks a producer forks in the propagation-tree scheme. *)
end
