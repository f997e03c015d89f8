(* Shard rewriting for worker processes.

   A remote exchange's worker must produce exactly what local producer
   rank [shard] of a [shards]-wide group would produce, but it compiles
   the subtree in a solo group (rank 0, size 1): the group-rank-governed
   leaves must therefore be rewritten to their shard explicitly.  The
   rewrite mirrors Compile's group semantics:

   - [Generate_slice] is the rank-sliced leaf: member r generates indices
     r, r+N, ... — rewritten to a plain [Generate] enumerating exactly
     those indices;
   - leaves that local producers duplicate ([Generate], [Scan_table],
     [Scan_list], [Scan_index]) are duplicated by workers too, unchanged;
   - recursion stops at nested [Exchange] / [Exchange_merge] / [Remote]
     boundaries — their own producer groups govern the leaves below, in
     the worker exactly as locally — and continues through [Interchange],
     which compiles in the same group. *)

let rec slice ~shard ~shards plan =
  if shards < 1 || shard < 0 || shard >= shards then
    invalid_arg "Remote.slice: shard out of range";
  let continue_ input = slice ~shard ~shards input in
  let sliced arity =
    let count, gen =
      Option.get (Plan.slice_share ~rank:shard ~size:shards plan)
    in
    Plan.Generate { arity; count; gen }
  in
  match plan with
  (* Rank-sliced leaves: worker [shard] produces the source indices
     congruent to it.  The worker-side rewrite may use a closure — only
     the shipped plan must stay closure-free. *)
  | Plan.Generate_slice { arity; _ } -> sliced arity
  | Plan.Generate_range _ -> sliced 1
  | Plan.Scan_table_slice name ->
      (* Partition files are keyed by group rank ("name#r"): worker
         [shard] owns partition [shard], so the sliced scan resolves to
         that one partition file in the worker's site-local environment.
         A worker whose environment does not hold the partition fails
         loudly at compile (Not_found -> an Err frame), which is exactly
         what a misrouted shard should do. *)
      Plan.Scan_table
        (Volcano_storage.Shard.partition_name ~table:name ~part:shard)
  | Plan.Scan_table _ | Plan.Scan_index _ | Plan.Scan_list _ | Plan.Generate _
    ->
      plan
  | Plan.Exchange _ | Plan.Exchange_merge _ | Plan.Remote _ -> plan
  | Plan.Interchange { cfg; input } ->
      Plan.Interchange { cfg; input = continue_ input }
  | Plan.Filter { pred; mode; input } ->
      Plan.Filter { pred; mode; input = continue_ input }
  | Plan.Project_cols { cols; input } ->
      Plan.Project_cols { cols; input = continue_ input }
  | Plan.Project_exprs { exprs; input } ->
      Plan.Project_exprs { exprs; input = continue_ input }
  | Plan.Sort { key; input } -> Plan.Sort { key; input = continue_ input }
  | Plan.Match { algo; kind; left_key; right_key; left; right } ->
      Plan.Match
        {
          algo;
          kind;
          left_key;
          right_key;
          left = continue_ left;
          right = continue_ right;
        }
  | Plan.Cross { left; right } ->
      Plan.Cross { left = continue_ left; right = continue_ right }
  | Plan.Union_all { left; right } ->
      Plan.Union_all { left = continue_ left; right = continue_ right }
  | Plan.Theta_join { pred; left; right } ->
      Plan.Theta_join
        { pred; left = continue_ left; right = continue_ right }
  | Plan.Aggregate { algo; group_by; aggs; input } ->
      Plan.Aggregate { algo; group_by; aggs; input = continue_ input }
  | Plan.Distinct { algo; on; input } ->
      Plan.Distinct { algo; on; input = continue_ input }
  | Plan.Division { algo; quotient; divisor_attrs; divisor_key; dividend; divisor }
    ->
      Plan.Division
        {
          algo;
          quotient;
          divisor_attrs;
          divisor_key;
          dividend = continue_ dividend;
          divisor = continue_ divisor;
        }
  | Plan.Limit { count; input } ->
      Plan.Limit { count; input = continue_ input }
  | Plan.Choose { decide; alternatives } ->
      Plan.Choose { decide; alternatives = List.map continue_ alternatives }

(* The worker-side stream for [Worker.run]'s resolve: slice the subtree
   to this shard now, compile it once the read set is known.  A projection
   at the top of the subtree is the edge's read set, which arrives in the
   parent's [Narrow] frame, so it is dropped here and rebuilt from that
   frame: over a table leaf, compile folds it into the scan's projected
   decode, so the site decodes only the fields it ships. *)
let shard_pull env ~shard ~shards plan =
  let plan = match plan with Plan.Project_cols { input; _ } -> input | _ -> plan in
  let sliced = slice ~shard ~shards plan in
  fun read_set ->
    let plan =
      match read_set with
      | None -> sliced
      | Some cols -> Plan.Project_cols { cols; input = sliced }
    in
    let iter = Compile.compile env plan in
    Volcano.Iterator.open_ iter;
    let closed = ref false in
    fun () ->
      if !closed then None
      else
        match Volcano.Iterator.next iter with
        | Some _ as tuple -> tuple
        | None ->
            closed := true;
            Volcano.Iterator.close iter;
            None
        | exception exn ->
            closed := true;
            (try Volcano.Iterator.close iter with _ -> ());
            raise exn
