(** Planlint: the multi-pass static analyzer over {!Plan.t}.

    Exchange's whole point is that single-process operators parallelize
    "without modifications" — which also means a mis-placed exchange, an
    out-of-range partition column, or a flow-controlled merge network
    fails only at runtime, deep inside a forked domain.  Dataflow-transfer
    mistakes are plan-structure properties; these passes check them before
    execution.  [Compile.compile ~check:true] (the default) rejects plans
    whose diagnostics include an [Error].

    The passes:

    - schema: infers output arity bottom-up (leaves resolve against the
      catalog; a missing table or index is [schema-unknown-source]) and
      checks every column reference — projections, predicate columns,
      match / aggregate / division / sort keys, partition columns of
      local and remote edges — against the inferred input arity; match
      key lists must pair up; union-family matches and choose-plan
      alternatives must be width-compatible.
    - exchange: range-partition bound counts against the consumer
      count, exchange-merge sortedness (producers must emit streams
      sorted on the merge key), and interchange placement rules.  Scalar
      config fields need no check: {!Volcano.Exchange.config} is private,
      so every config in a plan has passed {!Volcano.Exchange.validate}.
    - deadlock: the section 4.4 hazard class.  Keep-separate merge
      networks combined with flow control and several consumers, and
      broadcast-plus-flow-control wait cycles under operators with
      data-dependent input interleaving.  These are scheduling-dependent
      races, so they are reported as [Warning]s.
    - resource: forked domains (over 512) and concurrently fixed buffer
      pages against the pool's [frames].
    - scheduler: the plan's producer-task count against 4 times the
      [workers] pool size ([sched-dop]).
    - memory: the worst-case record count buffered under flow control —
      [degree x consumers x flow_slack x packet_size] summed over
      flow-controlled edges — against [flow_budget] (default [2^20]).
    - batch: [batch_size] against {!Volcano.Batch.validate}, and each
      exchange edge whose packet is smaller than the batch.
    - remote: worker count, flow slack, wire batching, repartitioning
      specs and shard placement of [Remote] edges.

    The per-node passes share one pre-order walk that hands each node
    its diagnostic path ([exchange/match/left/scan:emp], ...) and the
    size of the process group it runs in.  Every code the passes emit is
    registered in {!Diag.registry} with a stable [VLnnn] number. *)

val analyze :
  ?flow_budget:int ->
  frames:int ->
  workers:int ->
  batch_size:int ->
  Env.t ->
  Plan.t ->
  Diag.t list
(** All passes, sorted errors-first (see {!Diag.sort}). *)
