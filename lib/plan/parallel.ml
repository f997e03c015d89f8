module Exchange = Volcano.Exchange

(* every default (packet size, flow slack, round-robin) is the exchange's *)
let cfg = Exchange.config

let pipeline ?packet_size ?flow_slack input =
  Plan.Exchange { cfg = cfg ?packet_size ?flow_slack ~degree:1 (); input }

let partitioned_scan ~degree ?packet_size ~table () =
  Plan.Exchange
    { cfg = cfg ?packet_size ~degree (); input = Plan.Scan_table_slice table }

let repartition ~degree ?packet_size ~key input =
  Plan.Exchange
    { cfg = cfg ?packet_size ~partition:(Exchange.Hash_on key) ~degree (); input }

let partitioned_match ~degree ?packet_size ~algo ~kind ~left_key ~right_key
    ~left ~right () =
  let match_node =
    Plan.Match
      {
        algo;
        kind;
        left_key;
        right_key;
        left = repartition ~degree ?packet_size ~key:left_key left;
        right = repartition ~degree ?packet_size ~key:right_key right;
      }
  in
  Plan.Exchange { cfg = cfg ?packet_size ~degree (); input = match_node }

let partitioned_aggregate ~degree ?packet_size ~algo ~group_by ~aggs input =
  let agg_node =
    Plan.Aggregate
      {
        algo;
        group_by;
        aggs;
        input = repartition ~degree ?packet_size ~key:group_by input;
      }
  in
  Plan.Exchange { cfg = cfg ?packet_size ~degree (); input = agg_node }

(* Decompose aggregates into a local (per-slice) phase and a global
   combining phase.  The local output lays out group columns first, then
   one column per local aggregate; [global] references those columns.
   Avg splits into Sum + Count and is finished by a projection. *)
let two_phase_decomposition ~group_by ~aggs =
  let g = List.length group_by in
  let module A = Volcano_ops.Aggregate in
  let module E = Volcano_tuple.Expr in
  (* local aggregate list, with Avg expanded *)
  let local =
    List.concat_map
      (function
        | A.Avg e -> [ A.Sum e; A.Count ]
        | other -> [ other ])
      aggs
  in
  (* global phase: combine partials by position *)
  let global =
    List.mapi
      (fun i agg ->
        let column = E.Col (g + i) in
        match agg with
        | A.Count -> A.Sum column
        | A.Sum _ -> A.Sum column
        | A.Min _ -> A.Min column
        | A.Max _ -> A.Max column
        | A.Avg _ -> assert false (* expanded above *))
      local
  in
  (* final projection mapping combined partials back to the requested
     aggregate list (identity unless Avg appears) *)
  let needs_projection = List.exists (function A.Avg _ -> true | _ -> false) aggs in
  let projection =
    if not needs_projection then None
    else begin
      let keep_groups = List.init g (fun i -> E.Col i) in
      let rec outputs i = function
        | [] -> []
        | A.Avg _ :: rest ->
            (* partials at i (sum) and i+1 (count) *)
            E.Div (E.Col (g + i), E.Col (g + i + 1)) :: outputs (i + 2) rest
        | _ :: rest -> E.Col (g + i) :: outputs (i + 1) rest
      in
      Some (keep_groups @ outputs 0 aggs)
    end
  in
  (local, global, projection)

let partitioned_aggregate_two_phase ~degree ?packet_size ~group_by ~aggs input =
  let g = List.length group_by in
  let local_aggs, global_aggs, projection =
    two_phase_decomposition ~group_by ~aggs
  in
  (* Local phase runs once per member of the repartitioning exchange's
     producer group, over that member's slice. *)
  let local =
    Plan.Aggregate
      { algo = Plan.Hash_based; group_by; aggs = local_aggs; input }
  in
  let combined =
    Plan.Aggregate
      {
        algo = Plan.Hash_based;
        group_by = List.init g Fun.id;
        aggs = global_aggs;
        input =
          Plan.Exchange
            {
              cfg =
                cfg ?packet_size
                  ~partition:(Exchange.Hash_on (List.init g Fun.id))
                  ~degree ();
              input = local;
            };
      }
  in
  let finished =
    match projection with
    | None -> combined
    | Some exprs -> Plan.Project_exprs { exprs; input = combined }
  in
  Plan.Exchange { cfg = cfg ?packet_size ~degree (); input = finished }

let parallel_sort ~degree ?packet_size ~key input =
  Plan.Exchange_merge
    { cfg = cfg ?packet_size ~degree (); key; input = Plan.Sort { key; input } }

let broadcast_join ~degree ?packet_size ~kind ~left_key ~right_key ~left ~right
    () =
  let join_node =
    Plan.Match
      {
        algo = Plan.Hash_based;
        kind;
        left_key;
        right_key;
        left;
        right =
          Plan.Exchange
            {
              cfg = cfg ?packet_size ~partition:Exchange.Broadcast ~degree ();
              input = right;
            };
      }
  in
  Plan.Exchange { cfg = cfg ?packet_size ~degree (); input = join_node }
