(** Planlint: the multi-pass static analyzer over plan IR.

    Exchange's whole point is that single-process operators parallelize
    "without modifications" — which also means a mis-placed exchange, an
    out-of-range partition column, or a flow-controlled merge network
    fails only at runtime, deep inside a forked domain.  Dataflow-transfer
    mistakes are plan-structure properties; these passes check them before
    execution.  [Volcano_plan.Compile.compile ~check:true] (the default)
    rejects plans whose diagnostics include an [Error].

    The four passes:

    - {!schema_pass}: infers output arity bottom-up and checks every
      column reference — projections, predicate columns, match /
      aggregate / division / sort keys, partition columns — against the
      inferred input arity; match key lists must pair up; union-family
      matches and choose-plan alternatives must be width-compatible.
    - {!exchange_pass}: exchange configuration sanity ([degree >= 1],
      [packet_size] in 1..255 — the paper's one-byte field — positive
      flow slack, range-partition bound counts), exchange-merge
      sortedness (producers must emit streams sorted on the merge key),
      and interchange placement rules.
    - {!deadlock_pass}: the section 4.4 hazard class.  Keep-separate
      merge networks combined with flow control and several consumers,
      and broadcast-plus-flow-control wait cycles under operators with
      data-dependent input interleaving.  These are scheduling-dependent
      races, so they are reported as [Warning]s: the plan is hazardous,
      not provably wrong.
    - {!resource_pass}: estimates forked domains and concurrently fixed
      buffer pages against pool capacity and reports over-commit.

    Two scheduler-aware passes ride along when their inputs are known:

    - {!sched_pass}: degree-of-parallelism advisory ([sched-dop]) — the
      plan's total producer-task count against the worker pool size times
      an oversubscription factor.
    - {!memory_pass}: flow-control memory bound ([mem-flow-slack]) — the
      worst-case buffered-record count admitted by the plan's flow-slack
      settings against a configurable budget.

    Every code the passes emit is registered in {!Diag.registry} with a
    stable [VLnnn] number. *)

val schema_pass : Ir.t -> Diag.t list

val exchange_pass : Ir.t -> Diag.t list

val deadlock_pass : Ir.t -> Diag.t list

val resource_pass : ?max_domains:int -> ?frames:int -> Ir.t -> Diag.t list
(** [max_domains] bounds total producer domains the plan may fork
    (default 512).  [frames] is the buffer pool size; when given, the
    estimated concurrently-fixed page count is checked against it. *)

val sched_pass : ?oversub:int -> workers:int -> Ir.t -> Diag.t list
(** Warns ([sched-dop]) when the plan's concurrent producer-task count
    exceeds [oversub] (default 4) times [workers].  [workers] is the
    pool size; pass 0 for the dedicated (domain-per-task) scheduler,
    where the advisory does not apply and the pass is empty. *)

val memory_pass : ?flow_budget:int -> Ir.t -> Diag.t list
(** Warns ([mem-flow-slack]) when the worst-case record count buffered
    under flow control — summed over flow-controlled exchange edges,
    [degree x consumers x flow_slack x packet_size] each — exceeds
    [flow_budget] (default [2^20] records). *)

val batch_pass : ?batch_size:int -> Ir.t -> Diag.t list
(** Batch-size legality for the vectorized path.  Errors ([batch-size])
    when the knob fails {!Volcano.Batch.validate} — the same validation
    the runtime's [Batch.to_iterator] applies, so planlint cannot drift from
    it.  Warns ([batch-packet-mismatch]) at each exchange edge whose
    port [packet_size] is smaller than the batch size: batches never
    cross an exchange edge unpacketized, so such an edge splits every
    batch on re-packetization.  [batch_size] defaults to
    {!Volcano.Batch.default_size}; 0 (batching disabled) checks
    nothing. *)

val remote_pass : ?batch_size:int -> Ir.t -> Diag.t list
(** Remote (network-distributed) exchange configuration.  Errors
    ([remote-workers]) when a [Remote] node's worker count is below one,
    disagrees with its config degree (the worker count is the shard
    count; the local port forks one feeder per degree), or ships an
    empty task string.  Warns ([remote-flow-slack]) on wire edges
    without flow slack — the local port ring is then unbounded and
    backpressure never reaches the kernel socket buffer — and
    ([remote-wire-batch]) when [batch_size] is 0 while the plan has wire
    edges, since the wire unit is the packetized batch. *)

val analyze :
  ?max_domains:int ->
  ?frames:int ->
  ?workers:int ->
  ?oversub:int ->
  ?flow_budget:int ->
  ?batch_size:int ->
  Ir.t ->
  Diag.t list
(** All passes, sorted errors-first (see {!Diag.sort}).  [workers]
    (default 0, meaning unknown/dedicated) enables {!sched_pass};
    [batch_size] (default {!Volcano.Batch.default_size}) parameterizes
    {!batch_pass}. *)
