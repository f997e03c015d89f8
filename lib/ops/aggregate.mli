(** Aggregation and duplicate elimination — "two algorithms each" (section
    1): sort-based (input arrives grouped) and hash-based.

    Output tuples carry the group-by columns followed by one value per
    aggregate.  Duplicate elimination is aggregation with an empty aggregate
    list. *)

type agg =
  | Count
  | Sum of Volcano_tuple.Expr.num
  | Min of Volcano_tuple.Expr.num
  | Max of Volcano_tuple.Expr.num
  | Avg of Volcano_tuple.Expr.num

val hash_iterator :
  group_by:int list -> aggs:agg list -> Volcano.Iterator.t -> Volcano.Iterator.t
(** Hash aggregation: consumes the whole input on [open_], emits one tuple
    per group. *)

val hash_feed_exprs :
  keys:Volcano_tuple.Expr.num list ->
  aggs:agg list ->
  drain:((Volcano_tuple.Tuple.t -> unit) -> unit) ->
  Volcano.Iterator.t
(** {!hash_iterator} fed by an arbitrary drive loop, keyed by
    expressions: [open_] calls [drain feed] once and expects it to push
    every input tuple, and the output key columns are the [keys]
    evaluated on each input tuple, in order.  This is the sink-fusion
    entry point — the compiler passes a drain that steps the fused
    chain's cursor with [feed] as its emit, so scan, filter, project and
    the hash build run as one loop with no packet shell in between — and
    how it pushes a projection directly under an aggregate into the
    aggregate itself ([Expr.subst] on keys and aggregate arguments), so
    the fused loop never materializes the projected tuple.  Same
    algorithm, same first-seen group order, bit-identical output.  When
    every aggregate is [Count] or [Sum] of an integer-only expression,
    the build runs allocation-free per record (see the
    implementation). *)

val distinct_filter : on:int list -> unit -> Volcano_tuple.Tuple.t -> bool
(** A fresh stateful duplicate predicate for the fused batch path: true
    exactly on the first tuple of each key group.  Instantiate one per
    open (it remembers every key it has seen). *)

val sorted_iterator :
  group_by:int list -> aggs:agg list -> Volcano.Iterator.t -> Volcano.Iterator.t
(** Streaming aggregation over an input already sorted (or at least
    grouped) on the group-by columns; fully pipelined. *)

val distinct_hash : on:int list -> Volcano.Iterator.t -> Volcano.Iterator.t
(** Duplicate elimination keyed on the given columns; emits the first tuple
    of each group. *)

val distinct_sorted : on:int list -> Volcano.Iterator.t -> Volcano.Iterator.t
