module Iterator = Volcano.Iterator
module Exchange = Volcano.Exchange
module Group = Volcano.Group
module Expr = Volcano_tuple.Expr
module Support = Volcano_tuple.Support
module Ops = Volcano_ops
module Injector = Volcano_fault.Injector
module Obs = Volcano_obs.Obs

(* Pre-assign port keys to exchange nodes, keyed by physical identity: the
   one compiled thunk shared by a group captures this table, so every
   member resolves the same node to the same key. *)
let assign_ids plan =
  let table = ref [] in
  let note node =
    if not (List.exists (fun (n, _) -> n == node) !table) then
      table := (node, Exchange.fresh_id ()) :: !table
  in
  let rec walk plan =
    match plan with
    (* The Remote subtree is never compiled locally: the workers rebuild
       it from the task string, so its nested exchanges take their ids in
       the worker process. *)
    | Plan.Remote _ -> note plan
    | Plan.Exchange _ | Plan.Exchange_merge _ | Plan.Interchange _ ->
        note plan;
        List.iter walk (Plan.children plan)
    | _ -> List.iter walk (Plan.children plan)
  in
  walk plan;
  let ids = !table in
  fun node ->
    match List.find_opt (fun (n, _) -> n == node) ids with
    | Some (_, id) -> id
    | None -> invalid_arg "Compile: exchange node without id"

(* Observability: one obs node per plan node, keyed (like port ids) by
   physical identity so that every rank evaluating the same node — and
   every producer re-compiling a subtree per open — aggregates into the
   same counters. *)
type obs = { sink : Obs.t; node_of : Plan.t -> Obs.Node.t option }

let observe sink plan =
  if not (Obs.enabled sink) then { sink; node_of = (fun _ -> None) }
  else begin
    let table = ref [] in
    (* Pre-order walk: node ids follow the display order of [Plan.pp]. *)
    let rec walk plan =
      if not (List.exists (fun (n, _) -> n == plan) !table) then begin
        table := (plan, Obs.node sink ~label:(Plan.label plan)) :: !table;
        List.iter walk (Plan.children plan)
      end
    in
    walk plan;
    let entries = !table in
    {
      sink;
      node_of =
        (fun node ->
          Option.map snd (List.find_opt (fun (n, _) -> n == node) entries));
    }
  end

(* The (sink, node) pair handed to an exchange node for its port/group
   instrumentation. *)
let exchange_obs obs plan =
  match obs with
  | None -> None
  | Some o -> Option.map (fun node -> (o.sink, node)) (o.node_of plan)

(* The one resolver for table leaves, shared by both compile paths:
   [Some (file, slice)] is what this group member scans.  A sliced scan
   reads the partition file its rank names when the table is
   partitioned, and otherwise its own page range of the base file
   ([slice = Some (rank, ranks)]), so no two members read a page twice. *)
let table_leaf env group = function
  | Plan.Scan_table name -> Some (fst (Env.table env name), None)
  | Plan.Scan_table_slice name -> (
      let rank = Group.rank group and ranks = Group.size group in
      match
        Env.table env (Volcano_storage.Shard.partition_name ~table:name ~part:rank)
      with
      | file, _ -> Some (file, None)
      | exception Not_found -> Some (fst (Env.table env name), Some (rank, ranks)))
  | _ -> None

(* A column projection sitting directly on a table leaf compiles into the
   scan's decode, which steps over the dropped fields instead of
   allocating them.  Repeated columns keep the separate projection
   stage: a decode fills each output field from one stored field. *)
let projected_leaf env group = function
  | Plan.Project_cols { cols; input }
    when List.length (List.sort_uniq compare cols) = List.length cols ->
      Option.map
        (fun (file, slice) -> (input, cols, file, slice))
        (table_leaf env group input)
  | _ -> None

let limit_iterator count inner =
  let remaining = ref count in
  Iterator.make
    ~open_:(fun () ->
      remaining := count;
      Iterator.open_ inner)
    ~next:(fun () ->
      if !remaining <= 0 then None
      else
        match Iterator.next inner with
        | None -> None
        | Some tuple ->
            decr remaining;
            Some tuple)
    ~close:(fun () -> Iterator.close inner)

let slice_share group plan =
  Plan.slice_share ~rank:(Group.rank group) ~size:(Group.size group) plan

let sort_cmp key = Support.compare_on key
let cols_cmp cols = Support.compare_cols cols

(* With faults installed, every compiled node also checks the generic
   [Operator] site once per record — a failure "anywhere in the operator
   tree", not tied to a specific subsystem. *)
let guard faults inner =
  if Injector.is_none faults then inner
  else
    Iterator.make
      ~open_:(fun () -> Iterator.open_ inner)
      ~next:(fun () ->
        Injector.hit faults Volcano_fault.Operator;
        Iterator.next inner)
      ~close:(fun () -> Iterator.close inner)

(* The per-node decoration of the record path: the generic [Operator]
   fault site and the node's obs counters. *)
let decorate env obs plan inner =
  let inner = guard (Env.faults env) inner in
  match Option.bind obs (fun o -> o.node_of plan) with
  | None -> inner
  | Some node -> Iterator.instrumented ~node inner

(* ------------------------------------------------------------------ *)
(* Vectorized (batch) execution                                        *)

module Batch = Volcano.Batch

(* A compiled subtree is either a record iterator or — when the whole
   subtree is a fusible scan chain and the env's [batch_size] knob is on
   — one fused cursor.  Cursor-aware consumers (exchange producers, hash
   aggregation, a hash join's probe) step the [Fused] side directly;
   every other parent bridges through [Batch.to_iterator]. *)
type stream = Rows of Iterator.t | Fused of Batch.cursor

(* Obs bookkeeping for one node of a fused chain: a tap stage counts the
   node's output rows into [fn_rows], flushed once per cursor step by
   [instrumented].  [fn_credit] is open time that belongs to a join above
   the node — its build phase — and is not booked here. *)
type fused_node = {
  fn_node : Obs.Node.t;
  fn_rows : int ref;  (* rows since the last flush *)
  fn_total : int ref;  (* rows this open-to-close span *)
  fn_credit : float ref;  (* seconds of the current open to leave out *)
}

(* A fused join's build phase runs inside the chain's open, but it is the
   join's work: time the build input from open to close (the table
   inserts happen in between) and credit it to the chain nodes below the
   join, so they are not charged for it. *)
let credit_build below build =
  match below with
  | [] -> build
  | _ ->
      let t0 = ref 0.0 in
      Iterator.make
        ~open_:(fun () ->
          t0 := Obs.now ();
          Iterator.open_ build)
        ~next:(fun () -> Iterator.next build)
        ~close:(fun () ->
          Iterator.close build;
          let dt = Obs.now () -. !t0 in
          List.iter (fun fn -> fn.fn_credit := !(fn.fn_credit) +. dt) below)

(* The cursor-level analogue of [Iterator.instrumented] for a whole fused
   chain: opens, closes, and spans are booked once per lifetime on every
   chain node (an open less the node's build credit), and each node's
   tap-counted rows are flushed per step with [Obs.Node.on_batch] —
   per-node row totals stay exact while next-call counts become
   per-step.  Without obs nodes the cursor is returned unchanged. *)
let instrumented nodes (cursor : Batch.cursor) =
  match nodes with
  | [] -> cursor
  | _ ->
      let span_start = ref nan in
      let flush elapsed =
        List.iter
          (fun fn ->
            Obs.Node.on_batch fn.fn_node ~rows:!(fn.fn_rows) ~elapsed;
            fn.fn_total := !(fn.fn_total) + !(fn.fn_rows);
            fn.fn_rows := 0)
          nodes
      in
      {
        Batch.reset =
          (fun () ->
            List.iter
              (fun fn ->
                Obs.Node.count_open fn.fn_node;
                fn.fn_rows := 0;
                fn.fn_total := 0;
                fn.fn_credit := 0.0)
              nodes;
            let t0 = Obs.now () in
            span_start := t0;
            cursor.reset ();
            let elapsed = Obs.now () -. t0 in
            List.iter
              (fun fn ->
                Obs.Node.on_open fn.fn_node
                  ~elapsed:(elapsed -. !(fn.fn_credit)))
              nodes);
        step =
          (fun ~emit ~max ->
            let t0 = Obs.now () in
            match cursor.step ~emit ~max with
            | n ->
                flush (Obs.now () -. t0);
                n
            | exception exn ->
                flush (Obs.now () -. t0);
                raise exn);
        stop =
          (fun () ->
            List.iter (fun fn -> Obs.Node.count_close fn.fn_node) nodes;
            let t0 = Obs.now () in
            cursor.stop ();
            let stop = Obs.now () in
            List.iter
              (fun fn -> Obs.Node.on_close fn.fn_node ~elapsed:(stop -. t0))
              nodes;
            if not (Float.is_nan !span_start) then begin
              List.iter
                (fun fn ->
                  Obs.Node.on_span fn.fn_node ~start:!span_start ~stop
                    ~rows:!(fn.fn_total))
                nodes;
              span_start := nan
            end);
      }

(* Sink fusion: the hash aggregate's drive loop steps the fused cursor
   with the build's feed as its emit, so scan, filter, project and the
   build run as one loop with no packet shell in between. *)
let drain env (cursor : Batch.cursor) feed =
  let batch_size = Env.batch_size env in
  cursor.reset ();
  Fun.protect ~finally:cursor.stop (fun () ->
      while cursor.step ~emit:feed ~max:batch_size <> 0 do
        ()
      done)

(* Try to compile [plan] as one fused cursor: a batch-source leaf
   (generate, list, table scan, and their slices) under any number of
   fusible chain operators (filter, projections, hash distinct, and a
   hash join through its probe side — its build side compiles
   separately, with the same [ids] and [scope]).  Everything else —
   other blocking operators, sort-based joins, index scans, limits,
   choose, and every exchange — refuses, and the subtree compiles
   record-at-a-time.  Exchange edges can therefore never end up inside
   a chain (a join's build side may hold one, but it is its own
   subtree): a chain runs strictly within one process group, and records
   cross domains only inside port packets (planlint's batch pass checks
   the knob against each edge's packet size).

   The per-record decoration the record path applies per node — the
   generic [Operator] fault site and the obs row count — becomes a tap
   stage per node, so faults fire and rows count inside the fused loop
   exactly as they would in the nested-closure tree.  The stages ride in
   the cursor ([Batch.staged]), and so do the obs books ([instrumented]):
   a consumer only steps it.  Stateful pieces (distinct's seen table)
   hang their re-initialization on [cursor.reset], so resetting the
   cursor replays from scratch like reopening any iterator. *)
let rec fuse_chain env ids obs group scope plan =
  let batch_size = Env.batch_size env in
  if batch_size = 0 then None
  else begin
    let faults = Env.faults env in
    let faults_live = not (Injector.is_none faults) in
    let chain_nodes = ref [] in
    let resets = ref [] in
    let on_reset f = resets := f :: !resets in
    let node_stages plan op_stages =
      let stages =
        if faults_live then
          op_stages
          @ [
              Support.Stage.tap (fun _ ->
                  Injector.hit faults Volcano_fault.Operator);
            ]
        else op_stages
      in
      match Option.bind obs (fun o -> o.node_of plan) with
      | None -> stages
      | Some node ->
          let fn =
            {
              fn_node = node;
              fn_rows = ref 0;
              fn_total = ref 0;
              fn_credit = ref 0.0;
            }
          in
          chain_nodes := fn :: !chain_nodes;
          stages @ [ Support.Stage.tap (fun _ -> incr fn.fn_rows) ]
    in
    let leaf plan cursor = Some (cursor, node_stages plan []) in
    let staged (cursor, stages) =
      Batch.staged ~stage:(Support.Stage.compose stages) cursor
    in
    let rec chain plan =
      match projected_leaf env group plan with
      | Some (scan, cols, file, slice) ->
          (* both nodes keep their taps, as if the stages were separate *)
          Some
            ( Ops.Scan.heap_cursor ?slice ~cols file,
              node_stages scan [] @ node_stages plan [] )
      | None -> chain_node plan
    and chain_node plan =
      match plan with
      | Plan.Generate { count; gen; _ } ->
          leaf plan (Batch.generator_cursor ~count ~f:gen)
      | Plan.Generate_slice _ | Plan.Generate_range _ ->
          let count, f = Option.get (slice_share group plan) in
          leaf plan (Batch.generator_cursor ~count ~f)
      | Plan.Scan_list { tuples; _ } ->
          leaf plan (Batch.array_cursor (Array.of_list tuples))
      | Plan.Scan_table _ | Plan.Scan_table_slice _ ->
          Option.bind (table_leaf env group plan) (fun (file, slice) ->
              leaf plan (Ops.Scan.heap_cursor ?slice file))
      | Plan.Filter { pred; mode; input } ->
          let pred =
            match mode with
            | `Compiled -> Support.of_pred pred
            | `Interpreted -> Support.of_pred_interpreted pred
          in
          Option.map
            (fun (cursor, stages) ->
              (cursor, stages @ node_stages plan [ Support.Stage.filter pred ]))
            (chain input)
      | Plan.Project_cols { cols; input } ->
          Option.map
            (fun (cursor, stages) ->
              ( cursor,
                stages @ node_stages plan [ Support.Stage.project_cols cols ] ))
            (chain input)
      | Plan.Project_exprs { exprs; input } ->
          Option.map
            (fun (cursor, stages) ->
              ( cursor,
                stages @ node_stages plan [ Support.Stage.project_exprs exprs ]
              ))
            (chain input)
      | Plan.Distinct { algo = Plan.Hash_based; on; input } ->
          Option.map
            (fun (cursor, stages) ->
              let pred = ref (fun _ -> true) in
              on_reset (fun () ->
                  pred := Ops.Aggregate.distinct_filter ~on ());
              let distinct k tuple = if !pred tuple then k tuple in
              (cursor, stages @ node_stages plan [ distinct ]))
            (chain input)
      | Plan.Match
          { algo = Plan.Hash_based; kind; left_key; right_key; left; right } ->
          (* The probe chain, stages and all, ends inside the join's
             driver, which becomes the cursor of the chain above; the
             build side is whatever the compiler makes of it. *)
          Option.map
            (fun probe ->
              let build =
                credit_build !chain_nodes
                  (compile_in env ids obs group scope right)
              in
              ( Ops.Hash_match.cursor
                  ~build_capacity:(Env.sort_run_capacity env)
                  ~spill:(Env.spill env) ~kind ~left_key ~right_key
                  ~left_arity:(Plan.arity env left)
                  ~right_arity:(Plan.arity env right) (staged probe) build,
                node_stages plan [] ))
            (chain left)
      | _ -> None
    in
    Option.map
      (fun (cursor, stages) ->
        let cursor =
          match !resets with
          | [] -> cursor
          | fs ->
              {
                cursor with
                Batch.reset =
                  (fun () ->
                    List.iter (fun f -> f ()) fs;
                    cursor.Batch.reset ());
              }
        in
        instrumented !chain_nodes (staged (cursor, stages)))
      (chain plan)
  end

(* [scope] is the cancellation scope enclosing this node: exchange nodes
   register their port in it and open a child scope over their producer
   subtrees, so that shutting any exchange cancels everything below it.
   The producer thunk re-enters [compile_stream], so nested exchanges get
   a fresh subtree (and fresh inner scopes) per producer, per open. *)
and compile_stream env ids obs group scope plan =
  match fuse_chain env ids obs group scope plan with
  | Some cursor -> Fused cursor
  | None -> Rows (decorate env obs plan (compile_node env ids obs group scope plan))

and compile_in env ids obs group scope plan =
  match compile_stream env ids obs group scope plan with
  | Rows iter -> iter
  | Fused cursor -> Batch.to_iterator ~batch_size:(Env.batch_size env) cursor

and compile_node env ids obs group scope plan =
  let faults = Env.faults env in
  let recur = compile_in env ids obs group scope in
  let sorted ~cmp input =
    Ops.Sort.iterator ~run_capacity:(Env.sort_run_capacity env)
      ~spill:(Env.spill env) ~cmp input
  in
  match plan with
  | Plan.Scan_table _ | Plan.Scan_table_slice _ ->
      let file, slice = Option.get (table_leaf env group plan) in
      Ops.Scan.heap ?slice file
  | Plan.Scan_index { index; lo; hi } ->
      let tree, file, _key = Env.index env index in
      let encode = Volcano_tuple.Serial.encode_string in
      let bound = function
        | Plan.Ix_unbounded -> Volcano_btree.Btree.Unbounded
        | Plan.Ix_inclusive t -> Volcano_btree.Btree.Inclusive (encode t)
        | Plan.Ix_exclusive t -> Volcano_btree.Btree.Exclusive (encode t)
      in
      Ops.Scan.index_fetch ~tree ~file ~lo:(bound lo) ~hi:(bound hi)
  | Plan.Scan_list { tuples; _ } -> Iterator.of_list tuples
  | Plan.Generate { count; gen; _ } -> Iterator.generate ~count ~f:gen
  | Plan.Generate_slice _ | Plan.Generate_range _ ->
      let count, f = Option.get (slice_share group plan) in
      Iterator.generate ~count ~f
  | Plan.Filter { pred; mode; input } ->
      let pred =
        match mode with
        | `Compiled -> Support.of_pred pred
        | `Interpreted -> Support.of_pred_interpreted pred
      in
      Ops.Filter.iterator ~pred (recur input)
  | Plan.Project_cols { cols; input } -> (
      match projected_leaf env group plan with
      | Some (scan, cols, file, slice) ->
          (* the scan node is decorated here, the projection by the caller *)
          decorate env obs scan (Ops.Scan.heap ?slice ~cols file)
      | None -> Ops.Project.columns cols (recur input))
  | Plan.Project_exprs { exprs; input } -> Ops.Project.exprs exprs (recur input)
  | Plan.Sort { key; input } -> sorted ~cmp:(sort_cmp key) (recur input)
  | Plan.Match { algo; kind; left_key; right_key; left; right } -> (
      let left_arity = Plan.arity env left in
      let right_arity = Plan.arity env right in
      match algo with
      | Plan.Sort_based ->
          Ops.Merge_match.iterator ~kind ~left_key ~right_key ~left_arity
            ~right_arity
            ~left:(sorted ~cmp:(cols_cmp left_key) (recur left))
            ~right:(sorted ~cmp:(cols_cmp right_key) (recur right))
      | Plan.Hash_based ->
          Ops.Hash_match.iterator
            ~build_capacity:(Env.sort_run_capacity env)
            ~spill:(Env.spill env) ~kind ~left_key ~right_key ~left_arity
            ~right_arity (recur left) (recur right))
  | Plan.Cross { left; right } ->
      Ops.Nested_loops.cross ~left:(recur left) ~right:(recur right)
  | Plan.Theta_join { pred; left; right } ->
      Ops.Nested_loops.join ~pred:(Support.of_pred pred) ~left:(recur left)
        ~right:(recur right)
  | Plan.Aggregate { algo; group_by; aggs; input } -> (
      match algo with
      | Plan.Hash_based -> (
          (* Cursor consumer: a fusible input chain sink-fuses into the
             hash build's drive loop — not even a packet shell between
             the scan and the accumulators.
             Projections sitting directly under the aggregate are folded
             into the aggregate's own key and argument expressions
             ([Expr.subst] — exact, since expression evaluation is
             total), so the fused loop never materializes the projected
             tuple.  Folding drops those nodes from the compiled tree,
             so it is gated off whenever per-node observability or fault
             injection needs every operator materialized. *)
          let plain = Option.is_none obs && Injector.is_none faults in
          let subst_agg bind agg =
            match agg with
            | Ops.Aggregate.Count -> agg
            | Ops.Aggregate.Sum e -> Ops.Aggregate.Sum (Expr.subst bind e)
            | Ops.Aggregate.Min e -> Ops.Aggregate.Min (Expr.subst bind e)
            | Ops.Aggregate.Max e -> Ops.Aggregate.Max (Expr.subst bind e)
            | Ops.Aggregate.Avg e -> Ops.Aggregate.Avg (Expr.subst bind e)
          in
          let rec peel keys aggs input =
            let through bind inner =
              peel
                (List.map (Expr.subst bind) keys)
                (List.map (subst_agg bind) aggs)
                inner
            in
            match input with
            | Plan.Project_cols _
              when Option.is_some (projected_leaf env group input) ->
                (* stays: the projection is cheaper inside the decode *)
                (keys, aggs, input)
            | Plan.Project_cols { cols; input } ->
                let arr = Array.of_list cols in
                through (fun i -> Expr.Col arr.(i)) input
            | Plan.Project_exprs { exprs; input } ->
                let arr = Array.of_list exprs in
                through (fun i -> arr.(i)) input
            | _ -> (keys, aggs, input)
          in
          let keys0 = List.map Expr.col group_by in
          let keys, aggs', input' =
            if plain then peel keys0 aggs input else (keys0, aggs, input)
          in
          match fuse_chain env ids obs group scope input' with
          | Some cursor ->
              Ops.Aggregate.hash_feed_exprs ~keys ~aggs:aggs'
                ~drain:(drain env cursor)
          | None ->
              (* The peeled chain did not fuse, so neither does the
                 original subtree (peeling only drops projections):
                 compile it, projections and all, record-at-a-time. *)
              Ops.Aggregate.hash_iterator ~group_by ~aggs (recur input))
      | Plan.Sort_based ->
          Ops.Aggregate.sorted_iterator ~group_by ~aggs
            (sorted ~cmp:(cols_cmp group_by) (recur input)))
  | Plan.Distinct { algo; on; input } -> (
      match algo with
      | Plan.Hash_based -> Ops.Aggregate.distinct_hash ~on (recur input)
      | Plan.Sort_based ->
          Ops.Aggregate.distinct_sorted ~on (sorted ~cmp:(cols_cmp on) (recur input)))
  | Plan.Division { algo; quotient; divisor_attrs; divisor_key; dividend; divisor }
    -> (
      match algo with
      | `Hash ->
          Ops.Division.hash_division ~quotient ~divisor_attrs ~divisor_key
            ~dividend:(recur dividend) ~divisor:(recur divisor)
      | `Count ->
          Ops.Division.count_division ~quotient ~divisor_attrs ~divisor_key
            ~dividend:(recur dividend) ~divisor:(recur divisor)
      | `Sort ->
          let dividend_key = quotient @ divisor_attrs in
          Ops.Division.sort_division ~quotient ~divisor_attrs ~divisor_key
            ~dividend:(sorted ~cmp:(cols_cmp dividend_key) (recur dividend))
            ~divisor:(sorted ~cmp:(cols_cmp divisor_key) (recur divisor)))
  | Plan.Limit { count; input } -> limit_iterator count (recur input)
  | Plan.Union_all { left; right } ->
      (* Bag concatenation: drain the left input to exhaustion, then the
         right.  Both open eagerly (like any binary operator) so nested
         exchanges fork their groups at open time. *)
      let l = recur left and r = recur right in
      let on_left = ref true in
      Iterator.make
        ~open_:(fun () ->
          on_left := true;
          Iterator.open_ l;
          Iterator.open_ r)
        ~next:(fun () ->
          if !on_left then
            match Iterator.next l with
            | Some _ as tuple -> tuple
            | None ->
                on_left := false;
                Iterator.next r
          else Iterator.next r)
        ~close:(fun () ->
          Iterator.close l;
          Iterator.close r)
  | Plan.Choose { decide; alternatives } ->
      Ops.Choose_plan.iterator ~decide
        ~alternatives:(Array.of_list (List.map recur alternatives))
  | Plan.Exchange { cfg; input } ->
      let child = Exchange.Scope.create () in
      (* Each producer task steps its subtree as one cursor: a fused
         chain routes into port packets with no per-record closure hop,
         a record subtree through [Batch.iterator_cursor] — exchange
         stays the sole place records cross a domain boundary. *)
      Exchange.source_iterator ~id:(ids plan) ~faults ?parent_scope:scope
        ~scope:child
        ?obs:(exchange_obs obs plan)
        ~sched:(Env.sched env) cfg ~group
        ~input:(fun producer_group ->
          match
            compile_stream env ids obs producer_group (Some child) input
          with
          | Rows iter -> Batch.iterator_cursor iter
          | Fused cursor -> cursor)
  | Plan.Exchange_merge { cfg; key; input } ->
      let child = Exchange.Scope.create () in
      Ops.Merge.exchange_merge ~id:(ids plan) ~faults ?parent_scope:scope
        ~scope:child
        ?obs:(exchange_obs obs plan)
        ~sched:(Env.sched env) cfg ~cmp:(sort_cmp key) ~group
        ~input:(fun producer_group ->
          compile_in env ids obs producer_group (Some child) input)
  | Plan.Interchange { cfg; input } ->
      let child = Exchange.Scope.create () in
      Exchange.interchange ~id:(ids plan) ~faults ?parent_scope:scope
        ~scope:child
        ?obs:(exchange_obs obs plan)
        cfg ~group
        ~input:(compile_in env ids obs group (Some child) input)
  | Plan.Remote { cfg; workers; task; input } ->
      (* The subtree never compiles here: worker processes rebuild it
         from [task], shard it, and stream packets back through the
         launcher's transport sources.  The launcher itself is injected
         through the environment so this library stays independent of the
         networking subsystem.  A projection at the top of [input] is the
         edge's read set: every source is narrowed to it before its
         first pull, and each site compiles it into its stream. *)
      let read_set =
        match input with Plan.Project_cols { cols; _ } -> Some cols | _ -> None
      in
      let launch =
        match Env.remote_launcher env with
        | Some launch -> launch
        | None ->
            invalid_arg
              "Compile: Plan.Remote needs Env.set_remote_launcher (wire \
               Volcano_net.Launcher in)"
      in
      let child = Exchange.Scope.create () in
      (* A partitioning spec on a remote edge means exchange-boundary
         repartitioning: the launcher ships the partition function to the
         workers, and rows come back routed to the [consumers] ranks of
         this (consuming) group instead of merge-order.  With one
         consumer, routing degenerates to merging — skip the frames. *)
      let consumers = Group.size group in
      let repartition =
        match cfg.Exchange.partition with
        | Exchange.Round_robin -> None
        | spec when consumers > 1 -> Some (spec, consumers)
        | _ -> None
      in
      Exchange.remote_iterator ~id:(ids plan) ~faults ?parent_scope:scope
        ~scope:child ~sched:(Env.sched env)
        ?obs:(exchange_obs obs plan)
        cfg ~group
        ~connect:(fun () ->
          let sources =
            launch ~faults ~repartition ~workers ~task
              ~packet_size:cfg.packet_size
          in
          Option.iter
            (fun cols ->
              Array.iter (fun s -> s.Volcano.Port.Transport.narrow cols) sources)
            read_set;
          sources)

exception Rejected of Diag.t list

let () =
  Printexc.register_printer (function
    | Rejected diags ->
        Some
          ("Compile.Rejected:\n"
          ^ String.concat "\n" (List.map Diag.to_string diags))
    | _ -> None)

let analyze ?workers ?flow_budget ?batch_size env plan =
  let frames =
    Volcano_storage.Bufpool.frames_total (Env.buffer env)
  in
  let workers =
    match workers with
    | Some w when w < 1 ->
        invalid_arg "Compile.analyze: workers must be positive"
    | Some w -> w
    | None -> Env.sched_workers env
  in
  let batch_size =
    match batch_size with Some b -> b | None -> Env.batch_size env
  in
  Planlint.analyze ?flow_budget ~frames ~workers ~batch_size env plan

(* The root-level cancellation check: consult the flag once per record so
   a query cancelled from outside (Session/Runtime) stops pulling even
   when no exchange sits on the path to the root. *)
let cancel_guard flag inner =
  let check () =
    match Atomic.get flag with
    | Some exn -> raise (Exchange.as_query_failed ~fallback:"session" exn)
    | None -> ()
  in
  Iterator.make
    ~open_:(fun () ->
      check ();
      Iterator.open_ inner)
    ~next:(fun () ->
      check ();
      Iterator.next inner)
    ~close:(fun () -> Iterator.close inner)

let check env plan =
  match Diag.errors (analyze env plan) with
  | [] -> ()
  | errors -> raise (Rejected errors)

let compile ?check:(checked = true) ?obs ?scope ?cancel env plan =
  if checked then check env plan;
  (* Checked as written, run narrowed: planlint's diagnostics name the
     plan the caller built. *)
  let plan = Plan.narrow env plan in
  let iter = compile_in env (assign_ids plan) obs (Group.solo ()) scope plan in
  match cancel with None -> iter | Some flag -> cancel_guard flag iter
