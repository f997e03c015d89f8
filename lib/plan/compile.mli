(** Plan compilation: from algebra trees to iterator trees.

    Exchange nodes need one port key shared by every member of the
    consuming process group.  [compile] pre-assigns a key to each exchange
    node of the plan; the closures capturing that assignment are shared by
    all group members (they all run the same compiled thunk), so members
    agree on keys without further coordination.

    Before compiling, the static analyzer ({!Planlint}) runs over the
    plan: structural mistakes that would otherwise fail at runtime deep
    inside a forked domain — out-of-range column or partition-column
    references, range bounds that do not fit the consumer count,
    unsorted merge inputs — are rejected at submit time instead. *)

exception Rejected of Diag.t list
(** Raised by [compile ~check:true] when the analyzer reports errors.
    Carries the [Error]-severity diagnostics. *)

type obs = {
  sink : Volcano_obs.Obs.t;
  node_of : Plan.t -> Volcano_obs.Obs.Node.t option;
}
(** An observability assignment for one plan: a sink plus the obs node
    registered for each plan node (keyed by physical identity, like port
    keys).  Built by {!observe}; pass it to {!compile} to instrument the
    iterator tree. *)

val observe : Volcano_obs.Obs.t -> Plan.t -> obs
(** Register one obs node per plan node (pre-order, so node ids follow the
    {!Plan.pp} display order) and return the assignment.  With a null sink
    this registers nothing and [node_of] is constantly [None], so
    [compile ?obs] adds no wrappers — the disabled path stays on the
    uninstrumented code. *)

val analyze :
  ?workers:int ->
  ?flow_budget:int ->
  ?batch_size:int ->
  Env.t ->
  Plan.t ->
  Diag.t list
(** Run all analyzer passes on the plan (sorted errors-first), resolving
    leaves against the environment's catalog, sizing the resource pass
    from its buffer pool, the scheduler-placement pass from its
    worker pool ({!Env.sched_workers}; override with [workers]), and the
    batch pass from its vectorization knob ({!Env.batch_size}; override
    with [batch_size]).  [flow_budget] bounds the flow-control memory pass
    (see {!Planlint}).  Warnings do not block compilation.
    @raise Invalid_argument if [workers < 1]. *)

val check : Env.t -> Plan.t -> unit
(** Raise {!Rejected} with the [Error]-severity diagnostics of
    {!analyze}, if there are any: [compile ~check:true]'s check. *)

val compile :
  ?check:bool ->
  ?obs:obs ->
  ?scope:Volcano.Exchange.Scope.t ->
  ?cancel:exn option Atomic.t ->
  Env.t ->
  Plan.t ->
  Volcano.Iterator.t
(** Compile for the query root process (a fresh solo group).  [check]
    defaults to [true]: the plan is analyzed first and {!Rejected} is
    raised if any [Error]-severity diagnostic is found.  Pass
    [~check:false] to compile a plan the analyzer would reject — it then
    fails (or silently misbehaves) at runtime, as before.

    [scope] becomes the parent cancellation scope of the plan's top-level
    exchanges: {!Volcano.Exchange.Scope.poison} on it tears the whole
    running query down.  [cancel] is checked once per record at the root;
    when set to [Some exn] the next pull raises it as
    {!Volcano.Exchange.Query_failed} — together they let a Session cancel
    a query both at its leaves and at its root.

    The plan that runs is {!Plan.narrow}[ env plan]: every table scan
    decodes, every generator produces and every remote edge ships only
    the columns its consumers read.  Nodes the narrowing rewrites are new values, so to attribute
    them, pass [~obs] built over the narrowed plan — narrowing it again
    changes nothing (this is what {!Profile.execute} does).

    With [~obs] (from {!observe}), every compiled node is wrapped in
    {!Volcano.Iterator.instrumented} against its assigned obs node, and
    exchange nodes additionally report port/group samples to the sink.
    Producer subtrees recompiled per rank share the plan node, hence the
    obs node: counters aggregate across the whole process group. *)
