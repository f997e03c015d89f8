(** Query evaluation plans: "complex algebra expressions; the operators of
    this algebra are query processing algorithms" (paper, section 3).

    A plan is a tree of logical operator applications with explicit
    algorithm choices (sort- vs hash-based) and explicit exchange
    placements.  {!Compile} turns a plan into an iterator tree; exchange
    nodes fork process groups at open time. *)

type algo = Sort_based | Hash_based

(** Key-range bounds for index scans, over the index's key columns. *)
type index_bound =
  | Ix_unbounded
  | Ix_inclusive of Volcano_tuple.Tuple.t
  | Ix_exclusive of Volcano_tuple.Tuple.t

type t =
  | Scan_table of string  (** by catalog name *)
  | Scan_table_slice of string
      (** intra-operator parallel scan: in a group of size N, member r scans
          the registered partition file ["name#r"] if present, otherwise
          its own page range of ["name"] (directory entries
          [\[r·P/N, (r+1)·P/N)] of the file's P pages) — the plan-level
          analogue of "partitioning of stored datasets is achieved by
          using multiple files" (section 4.2) *)
  | Scan_index of { index : string; lo : index_bound; hi : index_bound }
      (** secondary-index range scan + fetch from the base table *)
  | Scan_list of { arity : int; tuples : Volcano_tuple.Tuple.t list }
  | Generate of { arity : int; count : int; gen : int -> Volcano_tuple.Tuple.t }
  | Generate_slice of {
      arity : int;
      count : int;
      gen : int -> Volcano_tuple.Tuple.t;
    }  (** group member r generates indices r, r+N, ... of [0, count) *)
  | Generate_range of { start : int; count : int }
      (** closure-free integer range: one [Tint] column holding
          [start .. start+count-1].  Slice-aware like {!Generate_slice}
          (group member r produces the indices congruent to r), so the
          optimizer can parallelize it; carrying no closure, it survives
          any future plan serialization intact — which is why the SQL
          front end lowers [generate(n)] to this leaf *)
  | Filter of {
      pred : Volcano_tuple.Expr.pred;
      mode : [ `Compiled | `Interpreted ];
      input : t;
    }
  | Project_cols of { cols : int list; input : t }
  | Project_exprs of { exprs : Volcano_tuple.Expr.num list; input : t }
  | Sort of { key : Volcano_tuple.Support.sort_key; input : t }
  | Match of {
      algo : algo;
      kind : Volcano_ops.Match_op.kind;
      left_key : int list;
      right_key : int list;
      left : t;
      right : t;
    }  (** sort-based match sorts its own inputs on the keys *)
  | Cross of { left : t; right : t }
  | Theta_join of { pred : Volcano_tuple.Expr.pred; left : t; right : t }
  | Aggregate of {
      algo : algo;
      group_by : int list;
      aggs : Volcano_ops.Aggregate.agg list;
      input : t;
    }
  | Distinct of { algo : algo; on : int list; input : t }
  | Division of {
      algo : [ `Hash | `Count | `Sort ];
      quotient : int list;
      divisor_attrs : int list;
      divisor_key : int list;
      dividend : t;
      divisor : t;
    }
  | Limit of { count : int; input : t }
  | Union_all of { left : t; right : t }
      (** bag concatenation (SQL [UNION ALL]): drains [left] to
          exhaustion, then [right] — both inputs must have the same
          arity.  The fixed drain order cannot close a §4.4 wait cycle. *)
  | Choose of { decide : unit -> int; alternatives : t list }
      (** dynamic query evaluation plans (Graefe & Ward 1989): at open time
          the decision support function picks one alternative; all
          alternatives must produce the same schema *)
  | Exchange of { cfg : Volcano.Exchange.config; input : t }
      (** vertical / intra-operator parallelism boundary *)
  | Exchange_merge of {
      cfg : Volcano.Exchange.config;
      key : Volcano_tuple.Support.sort_key;
      input : t;
    }  (** keep-separate exchange feeding a merge (producers must emit
          sorted streams) *)
  | Interchange of { cfg : Volcano.Exchange.config; input : t }
      (** the no-fork variant inside an already-parallel group *)
  | Remote of {
      cfg : Volcano.Exchange.config;
      workers : int;
      task : string;
      input : t;
    }
      (** network-distributed exchange: the producer group runs in
          [workers] worker {e processes} which rebuild [input]'s subtree
          from the opaque [task] string (see {!Remote.slice} for the
          shard convention), stream serialized packets back over
          sockets, and merge at the consumer.  [input] documents the
          shipped subtree — the consumer never compiles it; the task
          string must rebuild it in the worker.  A [Project_cols] at the
          top of [input] is the edge's read set: the consumer sends its
          columns to the sites, which compile the projection over their
          slice when the stream opens (into the scan's decode, over a
          table leaf), so the task names the subtree below it
          ({!Remote.shard_pull} skips it).  {!narrow} places one there
          when the consumers read fewer columns than [input] yields.  [cfg.degree] must equal
          [workers] (planlint VL701).  When the consuming group has more
          than one member, workers repartition their rows on
          [cfg.partition] (hash or range; planlint checks its columns
          against [input]'s width) and route them to the consumer ranks;
          with one consumer the edge merges and the spec is unused. *)

val arity : Env.t -> t -> int
(** Output tuple width. *)

val slice_share :
  rank:int ->
  size:int ->
  t ->
  (int * (int -> Volcano_tuple.Tuple.t)) option
(** What member [rank] of a [size]-wide group generates from a sliced
    generator leaf ([Generate_slice], [Generate_range]): its record count
    and the generator of its [i]-th record, source index
    [i * size + rank].  [None] for every other node. *)

val label : t -> string
(** One-line description of the node alone (no children): a tree line of
    {!pp}, and the span label of the node's profile instrumentation. *)

val children : t -> t list
(** Direct inputs in display order (left before right, dividend before
    divisor, alternatives in listed order). *)

val map_children : (t -> t) -> t -> t
(** [map_children f plan] is [plan] with each direct input [c] replaced
    by [f c], applied in {!children}'s order; a leaf is returned as it
    is.  The inverse of {!children}: [children (map_children f p)] is
    [List.map f (children p)]. *)

val narrow : Env.t -> t -> t
(** Keep only what is read: the one rule that decides which columns a
    leaf produces and an edge ships.  Works read sets top-down from
    the root, which reads every column: each operator maps the columns
    read from its output to the columns it reads from its input, and an
    edge's own partition and merge keys count as read.
    - A table or generated leaf ([Scan_table], [Scan_table_slice],
      [Generate], [Generate_slice], [Generate_range]) read in part gets
      a [Project_cols] of the read columns (ascending), which
      {!Compile} folds into a table scan's decode.  A [Project_cols]
      already on such a leaf is that leaf's cut and is composed with,
      not stacked on.  Literal and index leaves stay whole.
    - Every [Remote] whose consumers read fewer columns than it ships
      gets a [Project_cols] of those columns at the top of its input —
      the projection the sites apply, see {!constructor-Remote}.
    - A join whose output is [left ++ right] ([Match] of the join and
      outer-join kinds, [Theta_join], [Cross]) narrows both sides: each
      reads its part of the read set plus its key or predicate columns.
    - Semi- and anti-joins, the set operations, [Union_all],
      [Division], [Choose] and an edge with [Custom] partitioning read
      their inputs whole, so nothing narrows through them; an edge or
      leaf deeper down still narrows for its own consumer.
    Every operator between a cut and its consumer — keys, predicates,
    partition specs — is remapped to the narrow layout, and a projection
    that narrowing makes the identity over its input is dropped.  Parts
    of the plan that do not change are returned physically unchanged,
    narrowing a narrowed plan returns it unchanged, and the output arity
    never changes. *)

val pp : Format.formatter -> t -> unit
(** Operator-tree rendering with one node per line ("explain"). *)

val explain : Env.t -> t -> string
(** Rendering plus per-node output arities. *)
