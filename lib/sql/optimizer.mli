(** Cost-based physical optimizer: {!Binder.query} to {!Plan.t}, with
    {!Compile.analyze} as the legality oracle.

    The optimizer makes every decision today's plan layer leaves to the
    plan author: left-deep join order and per-join algorithm (hash vs
    sort) from cardinality estimates; for each parallel candidate, the
    per-edge exchange vector — degree, partitioning function
    (round-robin gather, [Hash_on] repartition, or a shard-aligned
    [Range_on]/no-op when the storage partitioning already co-locates
    the keys), packet size and flow slack within planlint's budgets,
    and pipeline-vs-merge gathering for ORDER BY.

    Candidate degrees come from the scheduler's worker pool and the
    partition counts of sharded tables the query scans; a table with
    partition files {e must} be scanned at exactly its partition count
    (the compiler's group-rank lookup maps member [r] to partition file
    [r]), so conflicting shard widths simply rule parallel candidates
    out.  A parallel candidate's operator work is divided by
    [min degree workers], so a pool smaller than the degree is priced
    into the cost rather than forbidden.  Candidates are ranked by
    estimated cost and each is submitted to the analyzer; the first one
    whose only diagnostic, if any, is the VL501 [sched-dop]
    oversubscription advisory wins.  Candidates that trip any other
    diagnostic — errors and warnings alike — are pruned, never patched,
    and the pruning is recorded in the choice's notes.  The serial plan
    is always a candidate, so a legal plan always exists: it is the
    degree-1 candidate, built by the same rules as every other degree
    (its streams are solo, so every exchange edge on them is the
    identity and the gather is just the ORDER BY sort).

    The optimizer does not prune columns: its leaves read whole rows,
    and each candidate is {!Volcano_plan.Plan.narrow} of the plan it
    builds, so table scans and generators produce only the columns the
    query reads.  The analyzer, the notes and the returned plan all see
    that narrowed plan, and a select list is costed only if narrowing
    keeps it. *)

exception Error of string

type choice = {
  plan : Volcano_plan.Plan.t;
      (** narrowed ({!Volcano_plan.Plan.narrow}); passes planlint with no
          diagnostic other than VL501 *)
  notes : string list;
      (** one line per candidate, cost order: chosen / pruned (with
          diagnostic codes) / not chosen, the unpruned ones followed by
          any VL501 advisory they carry *)
}

val optimize :
  ?workers:int -> Volcano_plan.Env.t -> Binder.query -> choice
(** [workers] overrides {!Volcano_plan.Env.sched_workers} for both the
    candidate degrees and the analyzer's placement advisory.
    @raise Invalid_argument if [workers < 1].
    @raise Error if even the serial plan trips the analyzer (a binder or
    catalog inconsistency — not an expected outcome). *)

val render : Volcano_plan.Env.t -> choice -> string
(** The choice's operator tree plus the optimizer's notes. *)

val explain : ?workers:int -> Volcano_plan.Env.t -> Binder.query -> string
(** [render] of [optimize]. *)
