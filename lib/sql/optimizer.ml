module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Parallel = Volcano_plan.Parallel
module Partition = Volcano_plan.Partition
module Exchange = Volcano.Exchange
module Expr = Volcano_tuple.Expr
module Value = Volcano_tuple.Value
module Agg = Volcano_ops.Aggregate
module Shard = Volcano_storage.Shard
module Diag = Volcano_plan.Diag
module W = Volcano_wisconsin.Wisconsin
module B = Binder

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type choice = { plan : Plan.t; notes : string list }

let codes diags =
  String.concat ", "
    (List.sort_uniq compare
       (List.map
          (fun d ->
            (match Diag.vl_code d with Some v -> v ^ " " | None -> "")
            ^ d.Diag.code)
          diags))

(* --- global-id remapping ---------------------------------------------- *)

(* Streams carry [cols]: position [i] of the tuple holds the binder's
   global column [cols.(i)].  Every predicate/expression in the logical
   form is over global ids and gets remapped at the node that uses it. *)

let pos_of cols g =
  let hit = ref (-1) in
  Array.iteri (fun i c -> if c = g && !hit < 0 then hit := i) cols;
  if !hit < 0 then fail "internal error: global column %d not in stream" g;
  !hit

let remap_num cols e = Expr.subst (fun g -> Expr.Col (pos_of cols g)) e

let rec remap_pred cols p =
  match p with
  | Expr.True | Expr.False -> p
  | Expr.Cmp (op, a, b) -> Expr.Cmp (op, remap_num cols a, remap_num cols b)
  | Expr.And (a, b) -> Expr.And (remap_pred cols a, remap_pred cols b)
  | Expr.Or (a, b) -> Expr.Or (remap_pred cols a, remap_pred cols b)
  | Expr.Not a -> Expr.Not (remap_pred cols a)
  | Expr.Is_null e -> Expr.Is_null (remap_num cols e)
  | Expr.Str_prefix (s, e) -> Expr.Str_prefix (s, remap_num cols e)

let remap_agg cols = function
  | Agg.Count -> Agg.Count
  | Agg.Sum e -> Agg.Sum (remap_num cols e)
  | Agg.Min e -> Agg.Min (remap_num cols e)
  | Agg.Max e -> Agg.Max (remap_num cols e)
  | Agg.Avg e -> Agg.Avg (remap_num cols e)

let conj = function
  | [] -> Expr.True
  | p :: tl -> List.fold_left (fun a b -> Expr.And (a, b)) p tl

let lg x = log (max 2.0 x) /. log 2.0

(* --- logical phase: greedy left-deep join order ------------------------ *)

let src_of sources g =
  let hit = ref (-1) in
  Array.iteri
    (fun i (s : B.source) ->
      if g >= s.offset && g < s.offset + Array.length s.schema then hit := i)
    sources;
  !hit

type step = {
  src : int;
  pairs : (int * int) list;  (* (bound-side global col, new-side global col) *)
  residual : B.conjunct list;
  est : float;  (* estimated rows after this step *)
}

(* Split the conjunct pool: [singles.(i)] filters source [i] at its leaf
   (constant predicates ride on source 0), the rest connect sources and
   drive the join order. *)
let split_conjuncts (s : B.select) =
  let n = Array.length s.sources in
  let singles = Array.make n [] in
  let multis = ref [] in
  List.iter
    (fun (cj : B.conjunct) ->
      match cj.refs with
      | [] -> singles.(0) <- cj :: singles.(0)
      | [ i ] -> singles.(i) <- cj :: singles.(i)
      | _ -> multis := cj :: !multis)
    s.conjuncts;
  let eff =
    Array.mapi
      (fun i (src : B.source) ->
        let sel =
          List.fold_left (fun acc cj -> acc *. cj.B.sel) 1.0 singles.(i)
        in
        max 1.0 (float_of_int src.rows *. sel))
      s.sources
  in
  (singles, List.rev !multis, eff)

let order_sources (s : B.select) multis eff =
  let n = Array.length s.sources in
  let first = ref 0 in
  Array.iteri (fun i r -> if r < eff.(!first) then first := i) eff;
  let first = !first in
  let bound = Array.make n false in
  bound.(first) <- true;
  let multis = Array.of_list multis in
  let used = Array.make (Array.length multis) false in
  let cur = ref eff.(first) in
  let steps = ref [] in
  for _ = 2 to n do
    (* best = (connected, step, indexes of conjuncts the step consumes) *)
    let best = ref None in
    for c = 0 to n - 1 do
      if not bound.(c) then begin
        let consumed = ref [] in
        Array.iteri
          (fun i (cj : B.conjunct) ->
            if
              (not used.(i))
              && List.for_all (fun r -> r = c || bound.(r)) cj.refs
            then consumed := (i, cj) :: !consumed)
          multis;
        let consumed = List.rev !consumed in
        let pairs, residual =
          List.partition_map
            (fun (_, (cj : B.conjunct)) ->
              match cj.equi with
              | Some (a, b)
                when src_of s.sources b = c && bound.(src_of s.sources a) ->
                  Either.Left (a, b)
              | Some (a, b)
                when src_of s.sources a = c && bound.(src_of s.sources b) ->
                  Either.Left (b, a)
              | Some _ | None -> Either.Right cj)
            consumed
        in
        let base =
          if pairs <> [] then
            min !cur eff.(c) *. (0.1 ** float_of_int (List.length pairs - 1))
          else !cur *. eff.(c)
        in
        let est =
          max 1.0
            (List.fold_left (fun acc cj -> acc *. cj.B.sel) base residual)
        in
        let connected = pairs <> [] in
        let better =
          match !best with
          | None -> true
          | Some (bconn, bstep, _) ->
              (connected && not bconn)
              || (connected = bconn && est < bstep.est)
        in
        if better then
          best :=
            Some (connected, { src = c; pairs; residual; est },
                  List.map fst consumed)
      end
    done;
    match !best with
    | None -> assert false
    | Some (_, step, consumed_idx) ->
        bound.(step.src) <- true;
        List.iter (fun i -> used.(i) <- true) consumed_idx;
        cur := step.est;
        steps := step :: !steps
  done;
  (first, List.rev !steps)

(* --- physical streams -------------------------------------------------- *)

type prop =
  | P_none
  | P_hash of int list  (* partitioned by hash of these global columns *)
  | P_range of int * Value.t array

type stream = {
  plan : Plan.t;
  cols : int array;
  rows : float;  (* global row estimate (all members together) *)
  work : float;  (* serial-equivalent operator work *)
  ovh : float;  (* exchange overhead (parallel candidates only) *)
  prop : prop;
}

let prop_of_spec offset = function
  | Shard.Hash cs -> P_hash (List.map (fun c -> offset + c) cs)
  | Shard.Range (c, bounds) ->
      P_range (offset + c, Array.map Partition.decode_bound bounds)

let xchg ~packet ~degree ?partition st =
  let cfg =
    Exchange.config ~degree ~packet_size:packet ~flow_slack:(Some 4)
      ?partition ()
  in
  {
    st with
    plan = Plan.Exchange { cfg; input = st.plan };
    ovh = st.ovh +. (40.0 *. float_of_int degree) +. (0.3 *. st.rows);
  }

let leaf ~parallel ~degree (s : B.select) singles eff i =
  let src = s.sources.(i) in
  let plan, prop =
    match src.kind with
    | B.K_table name ->
        if not parallel then (Plan.Scan_table name, P_none)
        else (
          match src.parts with
          | Some (spec, p) when p = degree ->
              (* shard-aligned: member r reads partition file r *)
              (Plan.Scan_table_slice name, prop_of_spec src.offset spec)
          | Some _ ->
              (* degree selection guarantees d = parts for sharded scans *)
              assert false
          | None -> (Plan.Scan_table_slice name, P_none))
    | B.K_range count -> (Plan.Generate_range { start = 0; count }, P_none)
    | B.K_wisconsin { rows; seed } ->
        if parallel then (W.plan_slice ?seed ~n:rows (), P_none)
        else (W.plan ?seed ~n:rows (), P_none)
  in
  (* full width: [Plan.narrow] cuts the leaf to what the query reads *)
  let cols = Array.init (Array.length src.schema) (fun j -> src.offset + j) in
  let raw = float_of_int src.rows in
  match singles.(i) with
  | [] -> { plan; cols; rows = max 1.0 raw; work = raw; ovh = 0.0; prop }
  | cjs ->
      let pred =
        conj (List.map (fun (cj : B.conjunct) -> remap_pred cols cj.pred) cjs)
      in
      {
        plan = Plan.Filter { pred; mode = `Compiled; input = plan };
        cols;
        rows = eff.(i);
        work = raw +. (0.1 *. raw);
        ovh = 0.0;
        prop;
      }

(* Which exchanges does a parallel join edge need?  A side whose stream
   is already partitioned compatibly with the join keys (a shard-aligned
   scan, or the residue of an earlier repartitioning) stays in place and
   the other side is partitioned {e with the same function} on the
   paired columns — the catalog spec and local exchange share one
   router, so equal keys land on the same group member.  Only when
   neither side helps do both get the classic GAMMA hash repartition. *)
let covered prop own =
  match prop with
  | P_hash cl when cl <> [] && List.for_all (fun c -> List.mem c own) cl ->
      Some (`H cl)
  | P_range (c, b) when List.mem c own -> Some (`R (c, b))
  | P_hash _ | P_range _ | P_none -> None

let place ~packet ~degree l r pairs =
  let lcols = List.map fst pairs and rcols = List.map snd pairs in
  let partner_l c = List.assoc c pairs in
  let partner_r c = fst (List.find (fun (_, b) -> b = c) pairs) in
  match (covered l.prop lcols, covered r.prop rcols) with
  | Some (`H cl), rcov -> (
      let partners = List.map partner_l cl in
      match rcov with
      | Some (`H cr) when cr = partners -> (l, r, l.prop)
      | _ ->
          let r' =
            xchg ~packet ~degree
              ~partition:
                (Exchange.Hash_on (List.map (pos_of r.cols) partners))
              r
          in
          (l, r', l.prop))
  | Some (`R (c, b)), rcov -> (
      let rc = partner_l c in
      match rcov with
      | Some (`R (c2, b2)) when c2 = rc && b2 = b -> (l, r, l.prop)
      | _ ->
          let r' =
            xchg ~packet ~degree
              ~partition:(Exchange.Range_on (pos_of r.cols rc, b))
              r
          in
          (l, r', l.prop))
  | None, Some (`H cr) ->
      let partners = List.map partner_r cr in
      let l' =
        xchg ~packet ~degree
          ~partition:(Exchange.Hash_on (List.map (pos_of l.cols) partners))
          l
      in
      (l', r, r.prop)
  | None, Some (`R (c, b)) ->
      let lc = partner_r c in
      let l' =
        xchg ~packet ~degree
          ~partition:(Exchange.Range_on (pos_of l.cols lc, b))
          l
      in
      (l', r, r.prop)
  | None, None ->
      let l' =
        xchg ~packet ~degree
          ~partition:(Exchange.Hash_on (List.map (pos_of l.cols) lcols))
          l
      in
      let r' =
        xchg ~packet ~degree
          ~partition:(Exchange.Hash_on (List.map (pos_of r.cols) rcols))
          r
      in
      (l', r', P_hash lcols)

let join ~parallel ~packet ~degree env l r (st : step) =
  let cols = Array.append l.cols r.cols in
  match st.pairs with
  | [] ->
      (* theta or cross join: serial candidates only *)
      let preds =
        List.map (fun (cj : B.conjunct) -> remap_pred cols cj.pred) st.residual
      in
      let plan =
        match preds with
        | [] -> Plan.Cross { left = l.plan; right = r.plan }
        | ps -> Plan.Theta_join { pred = conj ps; left = l.plan; right = r.plan }
      in
      {
        plan;
        cols;
        rows = st.est;
        work = l.work +. r.work +. (l.rows *. r.rows);
        ovh = l.ovh +. r.ovh;
        prop = P_none;
      }
  | pairs ->
      let l, r, prop =
        if parallel then place ~packet ~degree l r pairs else (l, r, P_none)
      in
      let lkey = List.map (fun (a, _) -> pos_of l.cols a) pairs in
      let rkey = List.map (fun (_, b) -> pos_of r.cols b) pairs in
      let small = min l.rows r.rows and big = max l.rows r.rows in
      let algo =
        if small > float_of_int (Env.sort_run_capacity env) then
          Plan.Sort_based
        else Plan.Hash_based
      in
      let jcost =
        match algo with
        | Plan.Hash_based -> (1.5 *. small) +. big +. (0.2 *. st.est)
        | Plan.Sort_based ->
            l.rows +. r.rows
            +. (0.4 *. ((l.rows *. lg l.rows) +. (r.rows *. lg r.rows)))
      in
      let matched =
        Plan.Match
          {
            algo;
            kind = Volcano_ops.Match_op.Join;
            left_key = lkey;
            right_key = rkey;
            left = l.plan;
            right = r.plan;
          }
      in
      let plan, fcost =
        match st.residual with
        | [] -> (matched, 0.0)
        | rs ->
            ( Plan.Filter
                {
                  pred =
                    conj
                      (List.map
                         (fun (cj : B.conjunct) -> remap_pred cols cj.pred)
                         rs);
                  mode = `Compiled;
                  input = matched;
                },
              0.1 *. st.est )
      in
      {
        plan;
        cols;
        rows = st.est;
        work = l.work +. r.work +. jcost +. fcost;
        ovh = l.ovh +. r.ovh;
        prop;
      }

(* --- output shape ------------------------------------------------------ *)

let is_identity_over cols exprs =
  List.length exprs = Array.length cols
  && List.for_all2 (fun e g -> e = Expr.Col g) exprs (Array.to_list cols)

let is_layout_identity arity post =
  List.length post = arity
  && List.for_all Fun.id (List.mapi (fun i e -> e = Expr.Col i) post)

let sort_node key input = Plan.Sort { key; input }

(* The select list over the stream.  It costs only if it survives
   [Plan.narrow]: a list that picks the columns the leaves are cut to, in
   order, is dropped there. *)
let select_list env st exprs =
  if is_identity_over st.cols exprs then st
  else
    let plan =
      Plan.Project_exprs
        { exprs = List.map (remap_num st.cols) exprs; input = st.plan }
    in
    match Plan.narrow env plan with
    | Plan.Project_exprs _ ->
        { st with plan; work = st.work +. (0.05 *. st.rows) }
    | _ -> { st with plan }

let serial_tail env st (s : B.select) =
  let st, arity =
    match s.shape with
    | B.Flat exprs -> (select_list env st exprs, List.length exprs)
    | B.Grouped { keys; aggs; post } ->
        let key_pos = List.map (pos_of st.cols) keys in
        let aggs' = List.map (remap_agg st.cols) aggs in
        let groups =
          if keys = [] then 1.0 else max 1.0 (st.rows /. 10.0)
        in
        let plan =
          Plan.Aggregate
            {
              algo = Plan.Hash_based;
              group_by = key_pos;
              aggs = aggs';
              input = st.plan;
            }
        in
        let layout = List.length keys + List.length aggs in
        let plan =
          if is_layout_identity layout post then plan
          else Plan.Project_exprs { exprs = post; input = plan }
        in
        ( {
            st with
            plan;
            rows = groups;
            work = st.work +. (1.5 *. st.rows);
          },
          List.length post )
  in
  let st =
    if s.distinct then
      {
        st with
        plan =
          Plan.Distinct
            {
              algo = Plan.Hash_based;
              on = List.init arity Fun.id;
              input = st.plan;
            };
        rows = max 1.0 (st.rows *. 0.5);
        work = st.work +. st.rows;
      }
    else st
  in
  let st =
    if s.order_by = [] then st
    else
      {
        st with
        plan = sort_node s.order_by st.plan;
        work = st.work +. (0.4 *. st.rows *. lg st.rows);
      }
  in
  match s.limit with
  | None -> st
  | Some count -> { st with plan = Plan.Limit { count; input = st.plan } }

(* Gather the per-member stream at the region root: a merge network when
   the query orders its output (each member sorts its share), a plain
   round-robin exchange otherwise. *)
let gather ~packet ~degree st (s : B.select) =
  if s.order_by = [] then xchg ~packet ~degree st
  else
    let cfg =
      Exchange.config ~degree ~packet_size:packet ~flow_slack:(Some 4) ()
    in
    {
      st with
      plan =
        Plan.Exchange_merge
          { cfg; key = s.order_by; input = sort_node s.order_by st.plan };
      work = st.work +. (0.4 *. st.rows *. lg st.rows);
      ovh = st.ovh +. (40.0 *. float_of_int degree) +. (0.3 *. st.rows);
    }

let parallel_tail env ~packet ~degree st (s : B.select) =
  let finish_root st arity =
    (* solo-consumer steps after the gather *)
    let st =
      if s.distinct then
        {
          st with
          plan =
            Plan.Distinct
              {
                algo = Plan.Hash_based;
                on = List.init arity Fun.id;
                input = st.plan;
              };
          rows = max 1.0 (st.rows *. 0.5);
          work = st.work +. st.rows;
        }
      else st
    in
    match s.limit with
    | None -> st
    | Some count -> { st with plan = Plan.Limit { count; input = st.plan } }
  in
  match s.shape with
  | B.Flat exprs ->
      let arity = List.length exprs in
      let st = select_list env st exprs in
      let st =
        if not s.distinct then st
        else
          (* duplicates agree on every column, so hashing the whole row
             co-locates them; each member then deduplicates its share *)
          let st =
            xchg ~packet ~degree
              ~partition:(Exchange.Hash_on (List.init arity Fun.id))
              st
          in
          {
            st with
            plan =
              Plan.Distinct
                {
                  algo = Plan.Hash_based;
                  on = List.init arity Fun.id;
                  input = st.plan;
                };
            rows = max 1.0 (st.rows *. 0.5);
            work = st.work +. st.rows;
          }
      in
      let st = gather ~packet ~degree st s in
      (* distinct already ran inside the region *)
      let st =
        match s.limit with
        | None -> st
        | Some count -> { st with plan = Plan.Limit { count; input = st.plan } }
      in
      st
  | B.Grouped { keys; aggs; post } ->
      let key_pos = List.map (pos_of st.cols) keys in
      let aggs' = List.map (remap_agg st.cols) aggs in
      let k = List.length keys in
      let local_aggs, global_aggs, projection =
        Parallel.two_phase_decomposition ~group_by:key_pos ~aggs:aggs'
      in
      (* the binder decomposes AVG itself, so no Avg reaches this point
         and the decomposition never needs its own projection *)
      assert (projection = None);
      let layout = k + List.length aggs in
      let groups = if keys = [] then 1.0 else max 1.0 (st.rows /. 10.0) in
      if keys = [] then begin
        (* scalar aggregate: local phase per member, gathered and
           combined at the solo consumer — Hash_on [] would be a
           planlint warning, so no repartitioning is even attempted *)
        let st =
          {
            st with
            plan =
              Plan.Aggregate
                {
                  algo = Plan.Hash_based;
                  group_by = [];
                  aggs = local_aggs;
                  input = st.plan;
                };
            rows = float_of_int degree;
            work = st.work +. (1.5 *. st.rows);
          }
        in
        let st = xchg ~packet ~degree st in
        let st =
          {
            st with
            plan =
              Plan.Aggregate
                {
                  algo = Plan.Hash_based;
                  group_by = [];
                  aggs = global_aggs;
                  input = st.plan;
                };
            rows = 1.0;
          }
        in
        let st =
          if is_layout_identity layout post then st
          else { st with plan = Plan.Project_exprs { exprs = post; input = st.plan } }
        in
        let st =
          if s.order_by = [] then st
          else { st with plan = sort_node s.order_by st.plan }
        in
        finish_root st (List.length post)
      end
      else begin
        let covered_by_keys =
          match st.prop with
          | P_hash cl -> cl <> [] && List.for_all (fun c -> List.mem c keys) cl
          | P_range (c, _) -> List.mem c keys
          | P_none -> false
        in
        let st =
          if covered_by_keys then
            (* shard-aligned grouping: every group is wholly local to
               one member, so one aggregation pass suffices and no
               repartitioning edge is placed at all *)
            {
              st with
              plan =
                Plan.Aggregate
                  {
                    algo = Plan.Hash_based;
                    group_by = key_pos;
                    aggs = aggs';
                    input = st.plan;
                  };
              rows = groups;
              work = st.work +. (1.5 *. st.rows);
            }
          else
            let local =
              {
                st with
                plan =
                  Plan.Aggregate
                    {
                      algo = Plan.Hash_based;
                      group_by = key_pos;
                      aggs = local_aggs;
                      input = st.plan;
                    };
                rows = min st.rows (groups *. float_of_int degree);
                work = st.work +. (1.5 *. st.rows);
              }
            in
            let rep =
              xchg ~packet ~degree
                ~partition:(Exchange.Hash_on (List.init k Fun.id))
                local
            in
            {
              rep with
              plan =
                Plan.Aggregate
                  {
                    algo = Plan.Hash_based;
                    group_by = List.init k Fun.id;
                    aggs = global_aggs;
                    input = rep.plan;
                  };
              rows = groups;
              work = rep.work +. (1.5 *. rep.rows);
            }
        in
        let st =
          if is_layout_identity layout post then st
          else
            {
              st with
              plan = Plan.Project_exprs { exprs = post; input = st.plan };
              work = st.work +. (0.05 *. st.rows);
            }
        in
        let st = gather ~packet ~degree st s in
        finish_root st (List.length post)
      end

(* --- candidates -------------------------------------------------------- *)

type candidate = { label : string; cost : float; cplan : Plan.t }

let packet_for env =
  min 255 (max Volcano.Packet.default_capacity (Env.batch_size env))

let build env (s : B.select) (first, steps) singles eff ~workers ~degree =
  let parallel = degree > 1 in
  let packet = packet_for env in
  let l0 = leaf ~parallel ~degree s singles eff first in
  let stream =
    List.fold_left
      (fun l st ->
        let r = leaf ~parallel ~degree s singles eff st.src in
        join ~parallel ~packet ~degree env l r st)
      l0 steps
  in
  if parallel then
    let st = parallel_tail env ~packet ~degree stream s in
    (* the pool prices the degree: [degree] members share [workers]
       domains, so only [min degree workers] of them run at once *)
    {
      label = Printf.sprintf "degree %d" degree;
      cost = (st.work /. float_of_int (min degree workers)) +. st.ovh;
      cplan = Plan.narrow env st.plan;
    }
  else
    let st = serial_tail env stream s in
    { label = "serial"; cost = st.work; cplan = Plan.narrow env st.plan }

let allowed_degrees ~workers (s : B.select) steps =
  (* theta/cross steps have no partitioning key, and a pool of fewer
     than two workers has nothing to run partitions on: serial only *)
  if workers < 2 || List.exists (fun st -> st.pairs = []) steps then []
  else
    let parts =
      Array.to_list s.sources
      |> List.filter_map (fun (src : B.source) -> Option.map snd src.parts)
      |> List.sort_uniq compare
    in
    match parts with
    | [] -> List.sort_uniq compare (List.filter (fun d -> d >= 2) [ workers; 2 ])
    | [ p ] ->
        (* a sharded table must be scanned at exactly its partition
           count: the compiler maps group member r to partition file r *)
        if p >= 2 then [ p ] else []
    | _ :: _ :: _ -> []

(* Which diagnostics rule a candidate out.  VL501 [sched-dop] does not:
   the oversubscription it reports is already in the cost (see [build]),
   so it is priced, not vetoed.  Errors, the VL3xx deadlock hazards, the
   VL7xx remote-placement codes and every other warning still prune. *)
let prunes (d : Diag.t) = d.code <> "sched-dop"

let select_plan env ~workers ~allow_parallel (s : B.select) =
  let singles, multis, eff = split_conjuncts s in
  let order = order_sources s multis eff in
  let degrees =
    if allow_parallel then allowed_degrees ~workers s (snd order) else []
  in
  let cands =
    build env s order singles eff ~workers ~degree:1
    :: List.map (fun d -> build env s order singles eff ~workers ~degree:d)
         degrees
  in
  let cands = List.sort (fun a b -> compare a.cost b.cost) cands in
  let evaluated =
    List.map (fun c -> (c, Compile.analyze ~workers env c.cplan)) cands
  in
  let chosen =
    match
      List.find_opt
        (fun (_, diags) -> not (List.exists prunes diags))
        evaluated
    with
    | Some hit -> hit
    | None ->
        let _, diags = List.nth evaluated (List.length evaluated - 1) in
        fail "no legal plan: even the serial candidate trips the analyzer \
              (%s)"
          (codes diags)
  in
  let notes =
    List.map
      (fun (c, diags) ->
        let status =
          if List.exists prunes diags then "pruned: " ^ codes diags
          else
            (if c == fst chosen then "chosen" else "not chosen (higher cost)")
            ^ if diags = [] then "" else " (advisory: " ^ codes diags ^ ")"
        in
        Printf.sprintf "%-10s cost %12.0f  %s" c.label c.cost status)
      evaluated
  in
  { plan = (fst chosen).cplan; notes }

let rec plan_query env ~workers ~allow_parallel q =
  match q with
  | B.Q_select s -> select_plan env ~workers ~allow_parallel s
  | B.Q_union (a, b) -> (
      let ca = plan_query env ~workers ~allow_parallel a in
      let cb = plan_query env ~workers ~allow_parallel b in
      let plan = Plan.Union_all { left = ca.plan; right = cb.plan } in
      match List.filter prunes (Compile.analyze ~workers env plan) with
      | [] -> { plan; notes = ca.notes @ cb.notes }
      | diags when allow_parallel ->
          (* arms that are legal alone can exceed a budget together (the
             buffer pool, flow memory); prune the parallel choices, don't
             patch them *)
          let c = plan_query env ~workers ~allow_parallel:false q in
          {
            c with
            notes =
              c.notes
              @ [
                  Printf.sprintf "union arms serialized (combined plan: %s)"
                    (codes diags);
                ];
          }
      | diags -> fail "no legal plan for UNION ALL: %s" (codes diags))

let optimize ?workers env q =
  let workers =
    match workers with
    | Some w when w < 1 ->
        invalid_arg "Optimizer.optimize: workers must be positive"
    | Some w -> w
    | None -> Env.sched_workers env
  in
  plan_query env ~workers ~allow_parallel:true q

let render env (c : choice) =
  Plan.explain env c.plan
  ^ "-- optimizer --\n"
  ^ String.concat "\n" c.notes
  ^ "\n"

let explain ?workers env q = render env (optimize ?workers env q)
