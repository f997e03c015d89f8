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

let remap_pred cols p = Expr.subst_pred (fun g -> Expr.Col (pos_of cols g)) p

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

(* A candidate of degree [d] runs its region on [d] members; every stream
   below the gather is [d] members' shares, partitioned by [prop].  Degree 1
   is the serial candidate, built by the same rules: its streams are solo
   (one member produces them), so every edge on them is the identity. *)
type stream = {
  plan : Plan.t;
  cols : int array;
  rows : float;  (* global row estimate (all members together) *)
  work : float;  (* operator work the members share *)
  root : float;  (* operator work on a solo stream: one member does it *)
  ovh : float;  (* exchange overhead *)
  prop : prop;
  solo : bool;  (* one member produces the stream *)
}

let prop_of_spec offset = function
  | Shard.Hash cs -> P_hash (List.map (fun c -> offset + c) cs)
  | Shard.Range (c, bounds) ->
      P_range (offset + c, Array.map Partition.decode_bound bounds)

(* Every exchange the optimizer places: its config and its overhead.  With
   [partition] the edge repartitions the members' streams; without, it
   gathers them at one consumer (merging on [merge] when given), so the
   result is solo.  On a solo stream an edge is the identity. *)
let edge ~packet ~degree ?partition ?merge st =
  if st.solo then st
  else
    let cfg = Exchange.config ~degree ~packet_size:packet ?partition () in
    let plan =
      match merge with
      | None -> Plan.Exchange { cfg; input = st.plan }
      | Some key -> Plan.Exchange_merge { cfg; key; input = st.plan }
    in
    {
      st with
      plan;
      ovh = st.ovh +. (40.0 *. float_of_int degree) +. (0.3 *. st.rows);
      solo = partition = None;
    }

(* Add operator work to a stream: shared by its members, or undivided on
   a solo stream. *)
let charge w st =
  if st.solo then { st with root = st.root +. w } else { st with work = st.work +. w }

let leaf ~degree (s : B.select) singles eff i =
  let src = s.sources.(i) in
  let solo = degree = 1 in
  let plan, prop =
    match (src.kind, src.parts) with
    | B.K_table name, _ when solo -> (Plan.Scan_table name, P_none)
    | B.K_table name, Some (spec, p) when p = degree ->
        (* shard-aligned: member r reads partition file r *)
        (Plan.Scan_table_slice name, prop_of_spec src.offset spec)
    | B.K_table _, Some _ ->
        (* degree selection guarantees d = parts for sharded scans *)
        assert false
    | B.K_table name, None -> (Plan.Scan_table_slice name, P_none)
    | B.K_range count, _ -> (Plan.Generate_range { start = 0; count }, P_none)
    | B.K_wisconsin { rows; seed }, _ ->
        ((if solo then W.plan else W.plan_slice) ?seed ~n:rows (), P_none)
  in
  (* full width: [Plan.narrow] cuts the leaf to what the query reads *)
  let cols = Array.init (Array.length src.schema) (fun j -> src.offset + j) in
  let raw = float_of_int src.rows in
  let st =
    charge raw
      { plan; cols; rows = max 1.0 raw; work = 0.0; root = 0.0; ovh = 0.0; prop; solo }
  in
  match singles.(i) with
  | [] -> st
  | cjs ->
      let pred =
        conj (List.map (fun (cj : B.conjunct) -> remap_pred cols cj.pred) cjs)
      in
      charge (0.1 *. raw)
        {
          st with
          plan = Plan.Filter { pred; mode = `Compiled; input = plan };
          rows = eff.(i);
        }

(* Which partitioning of a stream the columns [own] cover: a shard-aligned
   scan, or the residue of an earlier repartitioning. *)
let covered prop own =
  match prop with
  | P_hash cl when cl <> [] && List.for_all (fun c -> List.mem c own) cl ->
      Some (`H cl)
  | P_range (c, b) when List.mem c own -> Some (`R (c, b))
  | P_hash _ | P_range _ | P_none -> None

(* Which exchanges does a join edge need?  A side whose partitioning the
   join keys cover stays in place, and the other side is partitioned {e
   with the same function} on the partner columns — the catalog spec and
   local exchange share one router, so equal keys land on the same group
   member.  Only when neither side helps do both get the classic GAMMA
   hash repartition. *)
let place ~packet ~degree l r pairs =
  let lcols = List.map fst pairs and rcols = List.map snd pairs in
  let to_r c = List.assoc c pairs in
  let to_l c = fst (List.find (fun (_, b) -> b = c) pairs) in
  (* [other] partitioned as [cov] is, on the [partner] columns *)
  let align cov partner other =
    let prop, partition =
      match cov with
      | `H cl ->
          let ps = List.map partner cl in
          (P_hash ps, Exchange.Hash_on (List.map (pos_of other.cols) ps))
      | `R (c, b) ->
          let p = partner c in
          (P_range (p, b), Exchange.Range_on (pos_of other.cols p, b))
    in
    if other.prop = prop then other else edge ~packet ~degree ~partition other
  in
  let hash st cols =
    edge ~packet ~degree
      ~partition:(Exchange.Hash_on (List.map (pos_of st.cols) cols))
      st
  in
  match (covered l.prop lcols, covered r.prop rcols) with
  | Some cov, _ -> (l, align cov to_r r, l.prop)
  | None, Some cov -> (align cov to_l l, r, r.prop)
  | None, None -> (hash l lcols, hash r rcols, P_hash lcols)

let join ~packet ~degree env l r (st : step) =
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
      charge (l.rows *. r.rows)
        {
          l with
          plan;
          cols;
          rows = st.est;
          work = l.work +. r.work;
          root = l.root +. r.root;
          ovh = l.ovh +. r.ovh;
          prop = P_none;
        }
  | pairs ->
      let l, r, prop = place ~packet ~degree l r pairs in
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
      charge (jcost +. fcost)
        {
          l with
          plan;
          cols;
          rows = st.est;
          work = l.work +. r.work;
          root = l.root +. r.root;
          ovh = l.ovh +. r.ovh;
          prop;
        }

(* --- output shape ------------------------------------------------------ *)

let is_identity_over cols exprs =
  List.length exprs = Array.length cols
  && List.for_all2 (fun e g -> e = Expr.Col g) exprs (Array.to_list cols)

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
    | Plan.Project_exprs _ -> charge (0.05 *. st.rows) { st with plan }
    | _ -> { st with plan }

(* Aggregation runs in one phase where each group's rows are already
   together: on a solo stream, or one whose partitioning the keys cover.
   Elsewhere each member pre-aggregates its share, a repartition on the
   keys (a gather when there are none) brings each group's partials
   together, and a global phase combines them.  The aggregate's output is
   laid out keys first, then one column per aggregate. *)
let aggregate ~packet ~degree st keys aggs =
  let key_pos = List.map (pos_of st.cols) keys in
  let aggs = List.map (remap_agg st.cols) aggs in
  let groups = if keys = [] then 1.0 else max 1.0 (st.rows /. 10.0) in
  let phase ~group_by ~aggs ~rows st =
    charge (1.5 *. st.rows)
      {
        st with
        plan =
          Plan.Aggregate
            { algo = Plan.Hash_based; group_by; aggs; input = st.plan };
        rows;
      }
  in
  if st.solo || covered st.prop keys <> None then
    phase ~group_by:key_pos ~aggs ~rows:groups st
  else
    let local_aggs, global_aggs, projection =
      Parallel.two_phase_decomposition ~group_by:key_pos ~aggs
    in
    (* the binder decomposes AVG itself, so no Avg reaches this point
       and the decomposition never needs its own projection *)
    assert (projection = None);
    let k = List.init (List.length keys) Fun.id in
    let partition = if keys = [] then None else Some (Exchange.Hash_on k) in
    phase ~group_by:key_pos ~aggs:local_aggs
      ~rows:(min st.rows (groups *. float_of_int degree))
      st
    |> edge ~packet ~degree ?partition
    |> phase ~group_by:k ~aggs:global_aggs ~rows:groups

(* The one tail: every candidate, the serial one included, finishes its
   stream by these rules.  The gather brings the stream to the root — in
   ORDER BY order when the query has one, each member sorting its share
   for a merge network — and on a solo stream it is just that sort.
   DISTINCT runs where duplicates are together: a flat row is hashed whole
   onto one member before the gather, grouped output is deduplicated after
   it. *)
let tail env ~packet ~degree st (s : B.select) =
  let edge = edge ~packet ~degree in
  let distinct arity st =
    let on = List.init arity Fun.id in
    let st = edge ~partition:(Exchange.Hash_on on) st in
    charge st.rows
      {
        st with
        plan = Plan.Distinct { algo = Plan.Hash_based; on; input = st.plan };
        rows = max 1.0 (st.rows *. 0.5);
      }
  in
  let gather st =
    if s.order_by = [] then edge st
    else
      edge ~merge:s.order_by
        (charge
           (0.4 *. st.rows *. lg st.rows)
           { st with plan = Plan.Sort { key = s.order_by; input = st.plan } })
  in
  let st =
    match s.shape with
    | B.Flat exprs ->
        let st = select_list env st exprs in
        gather (if s.distinct then distinct (List.length exprs) st else st)
    | B.Grouped { keys; aggs; post } ->
        let st = aggregate ~packet ~degree st keys aggs in
        let layout = List.length keys + List.length aggs in
        let st =
          if is_identity_over (Array.init layout Fun.id) post then st
          else
            charge (0.05 *. st.rows)
              {
                st with
                plan = Plan.Project_exprs { exprs = post; input = st.plan };
              }
        in
        let st = gather st in
        if s.distinct then distinct (List.length post) st else st
  in
  match s.limit with
  | None -> st
  | Some count -> { st with plan = Plan.Limit { count; input = st.plan } }

(* --- candidates -------------------------------------------------------- *)

type candidate = { label : string; cost : float; cplan : Plan.t }

let packet_for env =
  min 255 (max Volcano.Packet.default_capacity (Env.batch_size env))

let build env (s : B.select) (first, steps) singles eff ~workers ~degree =
  let packet = packet_for env in
  let leaf = leaf ~degree s singles eff in
  let st =
    List.fold_left
      (fun l st -> join ~packet ~degree env l (leaf st.src) st)
      (leaf first) steps
  in
  let st = tail env ~packet ~degree st s in
  (* the pool prices the degree: [degree] members share [workers]
     domains, so only [min degree workers] of them run at once; work on a
     solo stream (after the gather) runs on one of them *)
  {
    label =
      (if degree = 1 then "serial" else Printf.sprintf "degree %d" degree);
    cost = (st.work /. float_of_int (min degree workers)) +. st.root +. st.ovh;
    cplan = Plan.narrow env st.plan;
  }

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
