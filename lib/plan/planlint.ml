module Exchange = Volcano.Exchange
module Match_op = Volcano_ops.Match_op
module Support = Volcano_tuple.Support
module Expr = Volcano_tuple.Expr
module Agg = Volcano_ops.Aggregate
module Bufpool = Volcano_storage.Bufpool

(* ------------------------------------------------------------------ *)
(* Paths and the visitor                                               *)

let child_path path seg = if path = "" then seg else path ^ "/" ^ seg

(* A node's own path segment: its operator, or a leaf's source. *)
let segment = function
  | Plan.Scan_table name -> "scan:" ^ name
  | Plan.Scan_table_slice name -> "scan-slice:" ^ name
  | Plan.Scan_index { index; _ } -> "index:" ^ index
  | Plan.Scan_list _ -> "list"
  | Plan.Generate _ -> "generate"
  | Plan.Generate_slice _ -> "generate-slice"
  | Plan.Generate_range _ -> "generate-range"
  | Plan.Filter _ -> "filter"
  | Plan.Project_cols _ | Plan.Project_exprs _ -> "project"
  | Plan.Sort _ -> "sort"
  | Plan.Match _ -> "match"
  | Plan.Cross _ -> "cross"
  | Plan.Theta_join _ -> "theta-join"
  | Plan.Aggregate _ -> "aggregate"
  | Plan.Distinct _ -> "distinct"
  | Plan.Division _ -> "division"
  | Plan.Limit _ -> "limit"
  | Plan.Union_all _ -> "union-all"
  | Plan.Choose _ -> "choose"
  | Plan.Exchange _ -> "exchange"
  | Plan.Exchange_merge _ -> "exchange-merge"
  | Plan.Interchange _ -> "interchange"
  | Plan.Remote _ -> "remote-exchange"

(* [node]'s inputs in {!Plan.children} order, each with the prefix its
   own segment extends: the node's [path], plus the input's role where
   the node has several. *)
let inputs path node =
  let role i =
    match node with
    | Plan.Match _ | Plan.Cross _ | Plan.Theta_join _ | Plan.Union_all _ ->
        Some (if i = 0 then "left" else "right")
    | Plan.Division _ -> Some (if i = 0 then "dividend" else "divisor")
    | Plan.Choose _ -> Some (Printf.sprintf "alt%d" i)
    | _ -> None
  in
  List.mapi
    (fun i child ->
      ((match role i with Some r -> child_path path r | None -> path), child))
    (Plan.children node)

(* Pre-order over the plan: [f ~path ~group node] for every node, where
   [group] is the size of the process group the node executes in — the
   consumer count of an exchange at that position.  The root runs solo;
   an exchange's producer subtree runs [cfg.degree] wide; a remote edge's
   subtree runs solo in each worker process; interchange stays in its
   group. *)
let iter f root =
  let rec go prefix group node =
    let path = child_path prefix (segment node) in
    f ~path ~group node;
    let group =
      match node with
      | Plan.Exchange { cfg; _ } | Plan.Exchange_merge { cfg; _ } ->
          cfg.Exchange.degree
      | Plan.Remote _ -> 1
      | _ -> group
    in
    List.iter (fun (prefix, child) -> go prefix group child) (inputs path node)
  in
  go "" 1 root

(* ------------------------------------------------------------------ *)
(* Pass 1: schema / arity inference                                    *)

let schema_pass env emit root =
  let err path code msg = emit (Diag.error ~code ~path msg) in
  let warn path code msg = emit (Diag.warning ~code ~path msg) in
  (* Column checks are skipped when the input arity is unknown (an
     unresolved leaf below already carries its own error). *)
  let check_cols path what arity cols =
    match arity with
    | None -> ()
    | Some a ->
        List.iter
          (fun c ->
            if c < 0 || c >= a then
              err path "schema-col"
                (Printf.sprintf
                   "%s references column %d, but the input has %d column(s)"
                   what c a))
          cols
  in
  (* Every edge that routes on its partition spec — local exchanges and
     repartitioning remote edges alike — reads these columns. *)
  let check_partition path arity (cfg : Exchange.config) =
    match cfg.partition with
    | Exchange.Hash_on cols -> check_cols path "hash partition" arity cols
    | Exchange.Range_on (c, _) -> check_cols path "range partition" arity [ c ]
    | Exchange.Round_robin | Exchange.Custom _ | Exchange.Broadcast -> ()
  in
  let rec infer prefix node =
    let path = child_path prefix (segment node) in
    let ins = List.map (fun (p, child) -> infer p child) (inputs path node) in
    let nth i = Option.join (List.nth_opt ins i) in
    let input = nth 0 and left = nth 0 and right = nth 1 in
    let sum () =
      match (left, right) with Some l, Some r -> Some (l + r) | _ -> None
    in
    match node with
    | Plan.Scan_list { arity; tuples } ->
        let bad_rows =
          List.length (List.filter (fun t -> Array.length t <> arity) tuples)
        in
        if bad_rows > 0 then
          err path "schema-row-width"
            (Printf.sprintf
               "%d literal tuple(s) do not match the declared arity %d"
               bad_rows arity);
        Some arity
    | Plan.Scan_table _ | Plan.Scan_table_slice _ | Plan.Scan_index _
    | Plan.Generate _ | Plan.Generate_slice _ | Plan.Generate_range _ -> (
        match Plan.arity env node with
        | a -> Some a
        | exception (Not_found | Invalid_argument _) ->
            err path "schema-unknown-source"
              (segment node ^ " is not in the catalog");
            None)
    | Plan.Filter { pred; _ } ->
        check_cols path "filter predicate" input (Expr.cols_of_pred pred);
        input
    | Plan.Project_cols { cols; _ } ->
        check_cols path "projection" input cols;
        Some (List.length cols)
    | Plan.Project_exprs { exprs; _ } ->
        check_cols path "projection expression" input
          (List.sort_uniq compare (List.concat_map Expr.cols_of_num exprs));
        Some (List.length exprs)
    | Plan.Sort { key; _ } ->
        check_cols path "sort key" input (List.map fst key);
        input
    | Plan.Match { kind; left_key; right_key; _ } ->
        if List.length left_key <> List.length right_key then
          err path "schema-match-keys"
            (Printf.sprintf
               "left key has %d column(s) but right key has %d; keys are \
                matched pairwise"
               (List.length left_key)
               (List.length right_key));
        check_cols path "match left key" left left_key;
        check_cols path "match right key" right right_key;
        (match kind with
        | Match_op.Union | Match_op.Intersection | Match_op.Difference
        | Match_op.Anti_difference -> (
            match (left, right) with
            | Some l, Some r when l <> r ->
                err path "schema-union-arity"
                  (Printf.sprintf
                     "%s requires union-compatible inputs; left has %d \
                      column(s), right has %d"
                     (Match_op.to_string kind) l r)
            | _ -> ())
        | _ -> ());
        (match (left, right) with
        | Some l, Some r ->
            Some (Match_op.output_arity kind ~left_arity:l ~right_arity:r)
        | _ -> None)
    | Plan.Cross _ -> sum ()
    | Plan.Theta_join { pred; _ } ->
        let combined = sum () in
        check_cols path "join predicate" combined (Expr.cols_of_pred pred);
        combined
    | Plan.Aggregate { group_by; aggs; _ } ->
        check_cols path "group-by key" input group_by;
        List.iter
          (function
            | Agg.Count -> ()
            | Agg.Sum e | Agg.Min e | Agg.Max e | Agg.Avg e ->
                check_cols path "aggregate expression" input
                  (Expr.cols_of_num e))
          aggs;
        Some (List.length group_by + List.length aggs)
    | Plan.Distinct { on; _ } ->
        check_cols path "distinct key" input on;
        input
    | Plan.Division { quotient; divisor_attrs; divisor_key; _ } ->
        check_cols path "division quotient" left quotient;
        check_cols path "division divisor attributes" left divisor_attrs;
        check_cols path "division divisor key" right divisor_key;
        if List.length divisor_attrs <> List.length divisor_key then
          err path "schema-division-keys"
            (Printf.sprintf
               "%d divisor attribute(s) in the dividend but %d divisor key \
                column(s); they are matched pairwise"
               (List.length divisor_attrs)
               (List.length divisor_key));
        Some (List.length quotient)
    | Plan.Limit { count; _ } ->
        if count < 0 then
          err path "schema-limit"
            (Printf.sprintf "limit count %d is negative" count);
        input
    | Plan.Union_all _ -> (
        match (left, right) with
        | Some l, Some r when l <> r ->
            err path "schema-union-arity"
              (Printf.sprintf
                 "union-all requires union-compatible inputs; left has %d \
                  column(s), right has %d"
                 l r);
            Some l
        | Some l, _ -> Some l
        | None, r -> r)
    | Plan.Choose { alternatives = []; _ } ->
        err path "schema-choose-empty" "choose-plan with no alternatives";
        None
    | Plan.Choose _ ->
        let known = List.filter_map Fun.id ins in
        (match List.sort_uniq compare known with
        | _ :: _ :: _ ->
            err path "schema-choose-arity"
              (Printf.sprintf
                 "alternatives disagree on output arity (%s); the decision \
                  function would change the result width"
                 (String.concat ", " (List.map string_of_int known)))
        | _ -> ());
        List.nth_opt known 0
    | Plan.Exchange { cfg; _ } | Plan.Interchange { cfg; _ } ->
        (match cfg.partition with
        | Exchange.Hash_on [] ->
            warn path "schema-hash-empty"
              "hash partitioning on no columns sends every record to one \
               consumer"
        | _ -> check_partition path input cfg);
        input
    | Plan.Exchange_merge { cfg; key; _ } ->
        check_cols path "merge key" input (List.map fst key);
        check_partition path input cfg;
        input
    | Plan.Remote { cfg; _ } ->
        (* Workers rebuild the same subtree, so its schema holds across
           the wire, and a repartitioning edge routes the subtree's rows
           on the partition columns. *)
        check_partition path input cfg;
        input
  in
  ignore (infer "" root)

(* ------------------------------------------------------------------ *)
(* Pass 2: exchange placement                                          *)

(* The sort key (if any) that a subtree's output is guaranteed to obey.
   Filter and limit preserve order; everything else is conservative. *)
let rec sorted_key_of = function
  | Plan.Sort { key; _ } | Plan.Exchange_merge { key; _ } -> Some key
  | Plan.Filter { input; _ } | Plan.Limit { input; _ } -> sorted_key_of input
  | _ -> None

let rec is_key_prefix shorter longer =
  match (shorter, longer) with
  | [], _ -> true
  | _, [] -> false
  | a :: s, b :: l -> a = b && is_key_prefix s l

let key_to_string key =
  "["
  ^ String.concat ","
      (List.map
         (fun (c, dir) ->
           string_of_int c
           ^ match dir with Support.Asc -> "" | Support.Desc -> " desc")
         key)
  ^ "]"

(* Scalar config fields need no check: [Exchange.config] is private, so
   every config in a plan already passed [Exchange.validate].  What is
   left depends on the plan around the edge: [group] is its consumer
   count. *)
let exchange_checks emit ~path ~group node =
  let err code msg = emit (Diag.error ~code ~path msg) in
  let warn code msg = emit (Diag.warning ~code ~path msg) in
  let range_bounds (cfg : Exchange.config) =
    match cfg.partition with
    | Exchange.Range_on (_, bounds) when Array.length bounds <> group - 1 ->
        err "exchange-range-bounds"
          (Printf.sprintf
             "range partitioning has %d split bound(s) for %d consumer(s); \
              exactly %d are required"
             (Array.length bounds) group (group - 1))
    | _ -> ()
  in
  match node with
  | Plan.Exchange { cfg; _ } -> range_bounds cfg
  | Plan.Exchange_merge { cfg; key; input } -> (
      range_bounds cfg;
      match sorted_key_of input with
      | Some produced when is_key_prefix key produced -> ()
      | Some produced ->
          err "merge-unsorted"
            (Printf.sprintf
               "merge key %s is not a prefix of the producers' sort key %s; \
                the merged stream would not be ordered"
               (key_to_string key) (key_to_string produced))
      | None ->
          err "merge-unsorted"
            (Printf.sprintf
               "producers of an exchange-merge must emit streams sorted on \
                the merge key %s, but the input does not establish an order"
               (key_to_string key)))
  | Plan.Interchange { cfg; _ } ->
      range_bounds cfg;
      (match cfg.partition with
      | Exchange.Broadcast ->
          err "interchange-broadcast"
            "the no-fork interchange cannot broadcast (every process is both \
             producer and consumer of the same stream)"
      | _ -> ());
      if group = 1 then
        warn "interchange-solo"
          "interchange in a solo group repartitions to itself; it is a no-op \
           costing a packet copy per record"
      else if cfg.degree <> group then
        warn "interchange-degree"
          (Printf.sprintf
             "config degree %d is ignored by interchange; the enclosing group \
              size %d governs"
             cfg.degree group)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Pass 3: dataflow deadlock hazards (section 4.4)                     *)

(* Exchanges whose consumer side is the current process: reachable from
   [node] without crossing another exchange boundary.  The no-fork
   interchange stays inside the process, so the search continues below
   it. *)
let rec frontier acc = function
  | Plan.Exchange { cfg; _ } | Plan.Exchange_merge { cfg; _ }
  | Plan.Remote { cfg; _ } ->
      cfg :: acc
  | node -> List.fold_left frontier acc (Plan.children node)

let flow_controlled (cfg : Exchange.config) = cfg.flow_slack <> None

let broadcast_flow (cfg : Exchange.config) =
  cfg.partition = Exchange.Broadcast && flow_controlled cfg

(* Each worker behind a remote edge evaluates its subtree in a solo
   group, so local wait cycles cannot reach across the socket. *)
let deadlock_checks emit ~path ~group node =
  let warn code msg = emit (Diag.warning ~code ~path msg) in
  (* A binary operator with data-dependent input interleaving can block on
     either input depending on record values; fixed-order operators (hash
     match, hash/count division, union-all) fully drain one side first and
     cannot close a wait cycle. *)
  let interleaved left right =
    if group >= 2 then begin
      let lf = frontier [] left and rf = frontier [] right in
      let hazard a b =
        List.exists broadcast_flow a && List.exists flow_controlled b
      in
      if hazard lf rf || hazard rf lf then
        warn "deadlock-broadcast-flow"
          (Printf.sprintf
             "flow-controlled broadcast feeding one side of an operator that \
              interleaves its inputs, with a flow-controlled exchange on the \
              other side and %d consumers: a broadcast producer blocked on \
              one consumer's slack semaphore while that consumer waits on the \
              other input closes a wait cycle (section 4.4); disable flow \
              control on one of the exchanges"
             group)
    end
  in
  match node with
  | Plan.Match { algo = Plan.Sort_based; left; right; _ }
  | Plan.Cross { left; right }
  | Plan.Theta_join { left; right; _ } ->
      interleaved left right
  | Plan.Division { algo = `Sort; dividend; divisor; _ } ->
      interleaved dividend divisor
  | Plan.Exchange_merge { cfg; _ }
    when flow_controlled cfg && cfg.degree >= 2 && group >= 2 ->
      warn "deadlock-merge-flow"
        (Printf.sprintf
           "keep-separate merge network with flow control, %d producers and \
            %d consumers: a producer blocked on one consumer's slack \
            semaphore while another consumer waits on that producer's stream \
            closes a wait cycle (section 4.4); disable flow control or merge \
            in a solo group"
           cfg.degree group)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Pass 4: resource estimation                                         *)

let max_domains = 512

let rec domains = function
  | Plan.Exchange { cfg; input } | Plan.Exchange_merge { cfg; input; _ } ->
      cfg.degree + domains input
  | Plan.Remote { cfg; _ } ->
      (* One local feeder domain per worker socket; the subtree's own
         domains live in the worker processes, not this one. *)
      cfg.degree
  | Plan.Choose { alternatives; _ } ->
      List.fold_left (fun acc alt -> max acc (domains alt)) 0 alternatives
  | node ->
      List.fold_left (fun acc child -> acc + domains child) 0
        (Plan.children node)

(* Concurrently fixed buffer pages, coarsely: a heap scan pins one run of
   [run] pages at a time ([Bufpool.run_length_for]), an index scan a
   root-to-leaf path (~3), an external sort or spilling hash table ~8
   (runs being written plus the merge fan-in) — each per group member.
   Sort-based binary operators sort both inputs themselves. *)
let rec pages ~run members node =
  let pages = pages ~run in
  let inputs () =
    List.fold_left (fun acc child -> acc + pages members child) 0
      (Plan.children node)
  in
  match node with
  | Plan.Scan_table _ | Plan.Scan_table_slice _ -> run * members
  | Plan.Scan_index _ -> 3 * members
  | Plan.Sort _
  | Plan.Aggregate { algo = Plan.Sort_based; _ }
  | Plan.Distinct { algo = Plan.Sort_based; _ }
  | Plan.Match { algo = Plan.Hash_based; _ } (* spill partitions *) ->
      (8 * members) + inputs ()
  | Plan.Match { algo = Plan.Sort_based; _ } | Plan.Division { algo = `Sort; _ }
    ->
      (16 * members) + inputs ()
  | Plan.Choose { alternatives; _ } ->
      List.fold_left (fun acc alt -> max acc (pages members alt)) 0 alternatives
  | Plan.Exchange { cfg; input } | Plan.Exchange_merge { cfg; input; _ } ->
      pages cfg.degree input
  | Plan.Remote _ -> 0 (* the subtree pins pages in the workers' pools *)
  | _ -> inputs ()

let resource_pass emit ~domains:d ~frames root =
  let warn code msg = emit (Diag.warning ~code ~path:"root" msg) in
  if d > max_domains then
    warn "resource-domains"
      (Printf.sprintf
         "plan forks %d producer domains, over the limit of %d; consider \
          lower degrees or the no-fork interchange"
         d max_domains);
  let p = pages ~run:(Bufpool.run_length_for ~frames) 1 root in
  if p > frames then
    warn "resource-bufpool"
      (Printf.sprintf
         "estimated %d concurrently fixed buffer pages against a pool of %d \
          frames; expect thrashing or fix failures under load"
         p frames)

(* ------------------------------------------------------------------ *)
(* Pass 5: scheduler placement (degree of parallelism)                 *)

let oversub = 4

(* Every exchange producer is one scheduler task alive for the whole
   query, and those tasks share [workers] domains.  A modest
   oversubscription is healthy (producers block on flow control and
   I/O), but past it consumers wait whole scheduling rounds between
   packets and the fork-per-group latency the pool was built to hide
   comes back as queueing delay. *)
let sched_pass emit ~domains:tasks ~workers =
  let limit = oversub * workers in
  if tasks > limit then
    emit
      (Diag.warning ~code:"sched-dop" ~path:"root"
         (Printf.sprintf
            "plan schedules %d concurrent producer tasks onto a pool of %d \
             worker(s) — over the %dx oversubscription advisory of %d; \
             consumers will wait whole scheduling rounds between packets; \
             lower the exchange degrees or use the no-fork interchange (a \
             pool larger than the host's cores is slower, not faster: every \
             extra domain joins each stop-the-world minor GC)"
            tasks workers oversub limit))

(* ------------------------------------------------------------------ *)
(* Pass 6: flow-control memory bound                                   *)

(* A flow-controlled exchange bounds its buffering: each producer may be
   [flow_slack] packets ahead of each consumer, so the edge pins at most
   [degree x consumers x slack] packets of [packet_size] records at
   once.  Summed over the plan, that worst case is the query's packet
   memory high-water mark; compare it against a budget so a "bounded"
   plan whose bound is absurd is flagged before it runs.  Edges without
   flow control are unbounded by construction and are not counted — the
   paper's position is that their buffering is limited by operator
   demand, not by the exchange.  The no-fork interchange hands packets
   over synchronously and buffers nothing. *)
let memory_pass emit ~flow_budget root =
  let rec worst consumers node =
    match node with
    | Plan.Exchange { cfg; input }
    | Plan.Exchange_merge { cfg; input; _ }
    | Plan.Remote { cfg; input; _ } ->
        (* The local port behind a wire edge buffers like any exchange
           edge.  A remote subtree compiles solo in each of [degree]
           worker processes, so its edges recur [degree] times — the same
           multiplier a local producer group applies. *)
        let edge =
          match cfg.flow_slack with
          | Some slack -> cfg.degree * consumers * slack * cfg.packet_size
          | None -> 0
        in
        edge + worst cfg.degree input
    | _ ->
        List.fold_left (fun acc child -> acc + worst consumers child) 0
          (Plan.children node)
  in
  let w = worst 1 root in
  if w > flow_budget then
    emit
      (Diag.warning ~code:"mem-flow-slack" ~path:"root"
         (Printf.sprintf
            "flow-control slack admits up to %d buffered records across the \
             plan's exchange edges, over the budget of %d; shrink flow_slack, \
             packet_size, or the degrees (worst case = sum over \
             flow-controlled edges of degree x consumers x slack x \
             packet_size)"
            w flow_budget))

(* ------------------------------------------------------------------ *)
(* Pass 7: batch-size legality                                         *)

(* The vectorized path's knob shares the runtime's validation
   ([Volcano.Batch.validate]), so planlint can never drift from what the
   record bridge [Batch.to_iterator] accepts; [analyze] reports a bad
   knob once, at the root, and skips these edge checks.  Batches never
   cross an exchange edge unpacketized — the producer routes rows onto
   the port's pooled shells — so a port packet smaller than the batch
   size splits every batch at the boundary and gives back the per-record
   overhead batching amortized. *)
let batch_checks emit ~batch_size ~path node =
  match node with
  | Plan.Exchange { cfg; _ }
  | Plan.Exchange_merge { cfg; _ }
  | Plan.Interchange { cfg; _ }
  | Plan.Remote { cfg; _ }
    when cfg.packet_size < batch_size ->
      emit
        (Diag.warning ~code:"batch-packet-mismatch" ~path
           (Printf.sprintf
              "port packet size %d is smaller than the batch size %d; every \
               batch re-packetizes into %d+ port packets at this edge, giving \
               back the per-record overhead batching amortized — raise \
               packet_size to at least the batch size or lower the batch \
               size"
              cfg.packet_size batch_size
              ((batch_size + cfg.packet_size - 1) / cfg.packet_size)))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Pass 8: remote (network-distributed) exchange configuration         *)

(* A remote exchange ships packets over sockets from worker processes
   that arrive pre-sharded; the wire edge is a merge fed by one local
   feeder per worker.  Its legality conditions are its own:

   - the worker count IS the shard count — [Remote.slice] rewrites the
     subtree so worker [r] of [workers] produces what local producer
     rank [r] of a [workers]-wide group would, and the feeder array is
     sized by [cfg.degree]; the two must agree ([remote-workers]);
   - without flow slack the local port ring is unbounded, so
     backpressure never reaches the kernel socket buffer and a fast
     worker can run the consumer out of memory ([remote-flow-slack]);
   - the wire unit is the packetized batch — with the vectorized batch
     path disabled ([batch_size = 0]) every record is materialized
     individually before serialization ([remote-wire-batch]);
   - a partitioning spec on a remote edge repartitions at the exchange
     boundary: workers route rows to the [group] ranks of the enclosing
     group, so the spec must be expressible on the wire and sized to
     that group ([remote-partition-placement]), and a hash spec that
     cannot spread keys is a skew trap ([remote-repartition-skew]);
   - a sliced stored-table scan below a remote edge reads partition
     files by shard: the catalog's partition count must equal the worker
     count or shards read missing/foreign partitions
     ([remote-partition-placement]). *)
let remote_checks env emit ~batch_size ~path ~group node =
  let err path code msg = emit (Diag.error ~code ~path msg) in
  let warn code msg = emit (Diag.warning ~code ~path msg) in
  (* The catalog check walks a Remote's subtree exactly as [Remote.slice]
     rewrites it, stopping at nested exchange boundaries whose own groups
     govern what is below. *)
  let rec check_slices prefix workers node =
    let path = child_path prefix (segment node) in
    match node with
    | Plan.Scan_table_slice name -> (
        match Volcano_storage.Shard.find (Env.catalog env) name with
        | Some { Volcano_storage.Shard.parts; _ } when parts <> workers ->
            err path "remote-partition-placement"
              (Printf.sprintf
                 "%s is partitioned %d ways but the remote edge runs %d \
                  workers: shard k scans partition file k, so counts must \
                  agree or shards read missing or foreign partitions"
                 name parts workers)
        | _ -> ())
    | Plan.Exchange _ | Plan.Exchange_merge _ | Plan.Remote _ -> ()
    | _ ->
        List.iter
          (fun (prefix, child) -> check_slices prefix workers child)
          (inputs path node)
  in
  let check_repartition (cfg : Exchange.config) =
    match cfg.partition with
    | Exchange.Round_robin -> ()
    | _ when group <= 1 ->
        (* One consumer: every spec degenerates to a merge; nothing
           crosses the wire beyond what round-robin would send. *)
        ()
    | Exchange.Custom _ ->
        err path "remote-partition-placement"
          "a custom partition closure cannot cross the process boundary of \
           a repartitioning remote edge; use hash or range partitioning, \
           which ship as data"
    | Exchange.Broadcast ->
        err path "remote-partition-placement"
          "broadcast is not expressible on a remote edge: routed frames \
           carry one destination per packet; replicate below the edge or \
           use a local exchange"
    | Exchange.Range_on (_, bounds) ->
        let bounds = Array.length bounds in
        if bounds + 1 <> group then
          err path "remote-partition-placement"
            (Printf.sprintf
               "range repartitioning with %d bounds splits into %d partitions \
                but the edge feeds %d consumers; bounds must number consumers \
                - 1"
               bounds (bounds + 1) group)
    | Exchange.Hash_on [] ->
        warn "remote-repartition-skew"
          "hash repartitioning on no columns routes every row to one consumer \
           — the rest of the group idles; name the key columns"
    | Exchange.Hash_on cols ->
        if List.length (List.sort_uniq compare cols) <> List.length cols then
          warn "remote-repartition-skew"
            "hash repartitioning lists a column more than once: the duplicate \
             adds no spread and usually means a typo in the key"
  in
  match node with
  | Plan.Remote { cfg; workers; task; input } ->
      if workers < 1 then
        err path "remote-workers"
          (Printf.sprintf
             "a remote exchange needs at least one worker process, got %d"
             workers)
      else if cfg.degree <> workers then
        err path "remote-workers"
          (Printf.sprintf
             "config degree %d disagrees with the worker count %d: workers \
              shard by their count while the local port forks one feeder per \
              config degree, so records would be lost or feeders starve"
             cfg.degree workers);
      if task = "" then
        err path "remote-workers"
          "the task string is empty; workers cannot resolve the shipped \
           subtree";
      if cfg.flow_slack = None then
        warn "remote-flow-slack"
          "wire edge without flow slack: the local port buffers every frame \
           the feeders pull, so backpressure never reaches the kernel socket \
           buffer and a fast worker can run the consumer out of memory; set \
           flow_slack to bound the edge";
      if batch_size = 0 then
        warn "remote-wire-batch"
          "the vectorized batch path is disabled (batch_size = 0) while this \
           plan ships batches over sockets; workers materialize every record \
           individually before serialization — set a positive batch size";
      check_repartition cfg;
      check_slices path workers input
  | _ -> ()

(* ------------------------------------------------------------------ *)

let analyze ?(flow_budget = 1 lsl 20) ~frames ~workers ~batch_size env root =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  schema_pass env emit root;
  let batch_errors = Volcano.Batch.validate ~batch_size in
  List.iter
    (fun (code, msg) -> emit (Diag.error ~code ~path:"root" msg))
    batch_errors;
  let batch_edges = batch_errors = [] && batch_size > 0 in
  iter
    (fun ~path ~group node ->
      exchange_checks emit ~path ~group node;
      deadlock_checks emit ~path ~group node;
      if batch_edges then batch_checks emit ~batch_size ~path node;
      remote_checks env emit ~batch_size ~path ~group node)
    root;
  let d = domains root in
  resource_pass emit ~domains:d ~frames root;
  sched_pass emit ~domains:d ~workers;
  memory_pass emit ~flow_budget root;
  Diag.sort (List.rev !diags)
