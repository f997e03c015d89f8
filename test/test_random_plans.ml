(* The encapsulation property as a randomized test: generate random plan
   trees, then decorate them with random, structure-respecting exchange
   insertions (vertical pipelines anywhere; GAMMA-style repartitioning
   around matches and aggregations; merge networks around sorts) and check
   that the result multiset never changes.  This is the paper's central
   claim run as a property. *)

module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Exchange = Volcano.Exchange
module Sched = Volcano_sched.Sched
module Bufpool = Volcano_storage.Bufpool
module Tuple = Volcano_tuple.Tuple
module Expr = Volcano_tuple.Expr
module Support = Volcano_tuple.Support
module Match_op = Volcano_ops.Match_op
module Rng = Volcano_util.Rng

(* --- random serial plans ------------------------------------------- *)

(* All leaves are [Generate_slice]: in a solo group that is an ordinary
   generator, and under a degree-d exchange each producer generates its
   share — the invariant decoration relies on. *)
let leaf rng =
  let n = 1 + Rng.int rng 60 in
  let seed = Rng.int64 rng in
  let gen i =
    let r = Rng.create (Int64.add seed (Int64.of_int i)) in
    Tuple.of_ints [ Rng.int r 8; Rng.int r 5; Rng.int r 1000 ]
  in
  Plan.Generate_slice { arity = 3; count = n; gen }

(* Output width of a generated plan (no catalog needed: no Scan_table). *)
let rec plan_arity = function
  | Plan.Generate_slice { arity; _ } -> arity
  | Plan.Filter { input; _ } | Plan.Sort { input; _ } -> plan_arity input
  | Plan.Project_cols { cols; _ } -> List.length cols
  | Plan.Distinct { input; _ } -> plan_arity input
  | Plan.Aggregate { group_by; aggs; _ } ->
      List.length group_by + List.length aggs
  | Plan.Match { kind; left; right; _ } ->
      Volcano_ops.Match_op.output_arity kind ~left_arity:(plan_arity left)
        ~right_arity:(plan_arity right)
  | _ -> assert false

let all_cols plan = List.init (plan_arity plan) Fun.id

(* Deterministic-multiset operators only (no Limit; Distinct only over ALL
   columns — on a proper subset it keeps an arbitrary representative). *)
let rec random_plan rng depth =
  if depth = 0 then leaf rng
  else
    match Rng.int rng 8 with
    | 0 ->
        Plan.Filter
          {
            pred = Expr.Cmp (Expr.Le, Expr.Col 0, Expr.Const (Volcano_tuple.Value.Int (Rng.int rng 8)));
            mode = (if Rng.bool rng then `Compiled else `Interpreted);
            input = random_plan rng (depth - 1);
          }
    | 1 ->
        Plan.Project_cols
          { cols = [ 1; 0; 2 ]; input = random_plan rng (depth - 1) }
    | 2 ->
        Plan.Sort
          { key = [ (0, Support.Asc); (2, Support.Desc) ];
            input = random_plan rng (depth - 1) }
    | 3 ->
        let input = random_plan rng (depth - 1) in
        Plan.Distinct
          {
            algo = (if Rng.bool rng then Plan.Hash_based else Plan.Sort_based);
            on = all_cols input;
            input;
          }
    | 4 ->
        Plan.Aggregate
          {
            algo = (if Rng.bool rng then Plan.Hash_based else Plan.Sort_based);
            group_by = [ 0 ];
            aggs = [ Volcano_ops.Aggregate.Count; Volcano_ops.Aggregate.Sum (Expr.Col 2) ];
            input = random_plan rng (depth - 1);
          }
    | 5 | 6 ->
        let kind =
          match Rng.int rng 5 with
          | 0 -> Match_op.Join
          | 1 -> Match_op.Semi
          | 2 -> Match_op.Anti
          | 3 -> Match_op.Left_outer
          | _ -> Match_op.Full_outer
        in
        Plan.Match
          {
            algo = (if Rng.bool rng then Plan.Hash_based else Plan.Sort_based);
            kind;
            left_key = [ 0 ];
            right_key = [ 0 ];
            left = random_plan rng (depth - 1);
            right = random_plan rng (depth - 1);
          }
    | _ -> leaf rng

(* --- random exchange decoration ------------------------------------ *)

let random_cfg ?partition ?degree rng =
  Exchange.config
    ~degree:(match degree with Some d -> d | None -> 1 + Rng.int rng 3)
    ~packet_size:(1 + Rng.int rng 17)
    ~flow_slack:(if Rng.bool rng then Some (1 + Rng.int rng 4) else None)
    ?partition ()

let maybe rng p = Rng.int rng 100 < p

(* A subtree is slice-safe when running one copy per member of a degree-d
   group partitions the data instead of replicating or splitting matches:
   slice leaves and unary operators qualify; exchanges are boundaries (they
   gather their producers' full output); binary operators and grouping
   operators are not slice-safe — placing them in a parallel group without
   repartitioning would split their key groups, which is exactly the
   placement mistake a real optimizer must avoid. *)
let rec slice_safe = function
  | Plan.Generate_slice _ | Plan.Scan_table_slice _ -> true
  | Plan.Filter { input; _ }
  | Plan.Project_cols { input; _ }
  | Plan.Project_exprs { input; _ }
  | Plan.Sort { input; _ } ->
      slice_safe input
  | Plan.Exchange _ | Plan.Exchange_merge _ -> true
  | _ -> false

(* Repartitioning exchanges may only put their producers in a degree > 1
   group when the subtree below is slice-safe. *)
let inner_degree rng input = if slice_safe input then 1 + Rng.int rng 3 else 1

let rec decorate rng plan =
  let decorated =
    match plan with
    | Plan.Filter f -> Plan.Filter { f with input = decorate rng f.input }
    | Plan.Project_cols p ->
        Plan.Project_cols { p with input = decorate rng p.input }
    | Plan.Sort s ->
        let input = decorate rng s.input in
        if maybe rng 35 && slice_safe input then
          (* merge network: producers sort, consumer merges by producer *)
          Plan.Exchange_merge { cfg = random_cfg rng; key = s.key; input = Plan.Sort { s with input } }
        else Plan.Sort { s with input }
    | Plan.Distinct d ->
        (* safe to partition on the distinct columns *)
        let input = decorate rng d.input in
        if maybe rng 35 then
          Plan.Exchange
            {
              cfg = random_cfg rng;
              input =
                Plan.Distinct
                  {
                    d with
                    input =
                      Plan.Exchange
                        {
                          cfg =
                            random_cfg ~degree:(inner_degree rng input)
                              ~partition:(Exchange.Hash_on d.on) rng;
                          input;
                        };
                  };
            }
        else Plan.Distinct { d with input }
    | Plan.Aggregate a ->
        let input = decorate rng a.input in
        if maybe rng 35 then
          Plan.Exchange
            {
              cfg = random_cfg rng;
              input =
                Plan.Aggregate
                  {
                    a with
                    input =
                      Plan.Exchange
                        {
                          cfg =
                            random_cfg ~degree:(inner_degree rng input)
                              ~partition:(Exchange.Hash_on a.group_by) rng;
                          input;
                        };
                  };
            }
        else Plan.Aggregate { a with input }
    | Plan.Match m ->
        let left = decorate rng m.left and right = decorate rng m.right in
        if maybe rng 35 then
          (* GAMMA repartitioning: both inputs hash-partitioned on the key
             across the match group *)
          Plan.Exchange
            {
              cfg = random_cfg rng;
              input =
                Plan.Match
                  {
                    m with
                    left =
                      Plan.Exchange
                        {
                          cfg =
                            random_cfg ~degree:(inner_degree rng left)
                              ~partition:(Exchange.Hash_on m.left_key) rng;
                          input = left;
                        };
                    right =
                      Plan.Exchange
                        {
                          cfg =
                            random_cfg ~degree:(inner_degree rng right)
                              ~partition:(Exchange.Hash_on m.right_key) rng;
                          input = right;
                        };
                  };
            }
        else Plan.Match { m with left; right }
    | other -> other
  in
  (* Vertical parallelism (degree 1) is safe anywhere; wrapping with
     degree > 1 is only sound when the subtree is repartitioned, which the
     structured decorations above handle. *)
  if maybe rng 25 then
    Plan.Exchange
      {
        cfg =
          Exchange.config ~degree:1
            ~packet_size:(1 + Rng.int rng 17)
            ~flow_slack:(if Rng.bool rng then Some (1 + Rng.int rng 4) else None)
            ();
        input = decorated;
      }
  else decorated

(* --- stripping: the serial twin of a parallelized plan ---------------- *)

(* Remove every exchange wrapper, yielding the serial plan the decorated
   one encapsulates.  The paper's claim in one function: parallelism lives
   entirely in the exchange operators, so deleting them must change the
   process placement and nothing else.  Multiset-preserving by
   construction — a [Generate_slice] under a degree-d group generates the
   same total either way, and stripping an [Exchange_merge] keeps its
   producers' sorts, losing only the merge order (the comparison below is
   order-insensitive). *)
let rec strip = function
  | ( Plan.Scan_table _ | Plan.Scan_table_slice _ | Plan.Scan_index _
    | Plan.Scan_list _ | Plan.Generate _ | Plan.Generate_slice _
    | Plan.Generate_range _ ) as leaf ->
      leaf
  | Plan.Filter f -> Plan.Filter { f with input = strip f.input }
  | Plan.Project_cols p -> Plan.Project_cols { p with input = strip p.input }
  | Plan.Project_exprs p -> Plan.Project_exprs { p with input = strip p.input }
  | Plan.Sort s -> Plan.Sort { s with input = strip s.input }
  | Plan.Match m ->
      Plan.Match { m with left = strip m.left; right = strip m.right }
  | Plan.Cross { left; right } ->
      Plan.Cross { left = strip left; right = strip right }
  | Plan.Theta_join t ->
      Plan.Theta_join { t with left = strip t.left; right = strip t.right }
  | Plan.Aggregate a -> Plan.Aggregate { a with input = strip a.input }
  | Plan.Distinct d -> Plan.Distinct { d with input = strip d.input }
  | Plan.Division d ->
      Plan.Division
        { d with dividend = strip d.dividend; divisor = strip d.divisor }
  | Plan.Limit l -> Plan.Limit { l with input = strip l.input }
  | Plan.Union_all { left; right } ->
      Plan.Union_all { left = strip left; right = strip right }
  | Plan.Choose c ->
      Plan.Choose { c with alternatives = List.map strip c.alternatives }
  | Plan.Exchange { input; _ }
  | Plan.Exchange_merge { input; _ }
  | Plan.Interchange { input; _ }
  | Plan.Remote { input; _ } ->
      strip input

(* --- the property ---------------------------------------------------- *)

let sorted_run env plan = List.sort Tuple.compare (Runner.run env plan)

let accepted env plan =
  Volcano_plan.Diag.errors (Compile.analyze env plan) = []

let prop_exchange_invariance =
  QCheck.Test.make ~name:"random exchange decoration preserves results"
    ~count:60
    QCheck.(pair int64 (int_range 1 3))
    (fun (seed, depth) ->
      let env = Env.create ~frames:128 ~page_size:512 () in
      let rng = Rng.create seed in
      let serial = random_plan rng depth in
      let expected = sorted_run env serial in
      (* Several independent decorations of the same plan.  The analyzer
         must accept every decoration (structure-respecting exchange
         insertion never introduces an error-severity diagnostic), and
         [sorted_run] uses the default [~check:true], so acceptance is
         also exercised end to end. *)
      let ok =
        List.for_all
          (fun salt ->
            let rng = Rng.create (Int64.add seed (Int64.of_int salt)) in
            let decorated = decorate rng serial in
            accepted env decorated && sorted_run env decorated = expected)
          [ 1; 2 ]
      in
      Bufpool.assert_quiescent ~what:"exchange invariance" (Env.buffer env);
      Sched.assert_quiescent ~what:"exchange invariance" (Sched.default ());
      ok)

(* Differential lock on the exchange hot path: the decorated (parallel)
   plan against its own stripped (serial) twin, across 1000 seeds.  The
   invariance property above checks fewer, deeper plans against an
   independently built serial original; this one floods the ring/pool/
   wait machinery with many small parallel plans, where the packet counts
   are low enough that end-of-stream, shutdown, and pool-recycling edges
   dominate.  Since the default scheduler is the shared worker pool, this
   is also the serial-vs-pooled differential: every parallel run here
   executes its producers as pool fibers. *)
let prop_serial_parallel_differential =
  QCheck.Test.make ~name:"stripped serial twin matches across 1000 seeds"
    ~count:1000
    QCheck.(pair int64 (int_range 1 2))
    (fun (seed, depth) ->
      let env = Env.create ~frames:128 ~page_size:512 () in
      let rng = Rng.create seed in
      let parallel = decorate rng (random_plan rng depth) in
      let serial = strip parallel in
      let ok = sorted_run env parallel = sorted_run env serial in
      Bufpool.assert_quiescent ~what:"serial/parallel differential"
        (Env.buffer env);
      Sched.assert_quiescent ~what:"serial/parallel differential"
        (Sched.default ());
      ok)

(* Planlint soundness differential: a plan the analyzer accepts must run
   identically on the narrow default pool and on a wide one
   ({!Runner.with_wide_pool}).  This is the check behind planlint's claim
   that its scheduler-aware passes are advisory — acceptance never
   depends on the pool the plan lands on, and the interleavings agree on
   the result.  (Plans the analyzer rejects are covered by
   [prop_rejected_plans_misbehave] below.) *)
let prop_narrow_wide_differential ~name wide =
  QCheck.Test.make ~name ~count:40
    QCheck.(pair int64 (int_range 1 2))
    (fun (seed, depth) ->
      let narrow = Env.create ~frames:128 ~page_size:512 () in
      let wide_env = Env.create ~frames:128 ~page_size:512 ~sched:wide () in
      let rng = Rng.create seed in
      let plan = decorate rng (random_plan rng depth) in
      (* Acceptance must not be scheduler-dependent. *)
      let an = accepted narrow plan and aw = accepted wide_env plan in
      let ok =
        an = aw
        && ((not an) || sorted_run narrow plan = sorted_run wide_env plan)
      in
      let what = "narrow/wide differential" in
      Bufpool.assert_quiescent ~what (Env.buffer narrow);
      Bufpool.assert_quiescent ~what (Env.buffer wide_env);
      Sched.assert_quiescent ~what (Sched.default ());
      Sched.assert_quiescent ~what wide;
      ok)

(* --- the converse: rejected plans really are broken ------------------- *)

(* Plant one deterministic defect in an otherwise-sound plan.  Each
   mutation must (a) draw an error-severity diagnostic from the analyzer
   and (b) observably misbehave when forced past the check: raise at
   runtime, or — for the width mutation, which corrupts data rather than
   crashing — change the output arity. *)
let mutate rng arity plan =
  match Rng.int rng 4 with
  | 0 -> Plan.Project_cols { cols = [ arity ]; input = plan }
  | 1 ->
      Plan.Filter
        {
          pred = Expr.Cmp (Expr.Eq, Expr.Col arity, Expr.Const (Volcano_tuple.Value.Int 0));
          mode = `Compiled;
          input = plan;
        }
  | 2 ->
      (* An unresolved leaf: the catalog pass flags it
         (schema-unknown-source) and compilation raises [Not_found].
         (A malformed config literal is no longer constructible — the
         record is private behind the validating constructor.) *)
      Plan.Cross { left = plan; right = Plan.Scan_table "__missing__" }
  | _ ->
      Plan.Exchange
        {
          cfg =
            Exchange.config ~degree:2
              ~partition:(Exchange.Hash_on [ arity ]) ();
          input = plan;
        }

let prop_rejected_plans_misbehave =
  QCheck.Test.make ~name:"analyzer-rejected plans fail without the check"
    ~count:40
    QCheck.(pair int64 (int_range 1 3))
    (fun (seed, depth) ->
      let env = Env.create ~frames:128 ~page_size:512 () in
      let rng = Rng.create seed in
      let serial = random_plan rng depth in
      let expected = sorted_run env serial in
      let bad = mutate rng (plan_arity serial) serial in
      let rejected = not (accepted env bad) in
      let misbehaves =
        match Runner.run ~check:false env bad with
        | exception _ -> true
        | rows ->
            (* The column-reference mutations only dereference the bad
               column when a tuple actually flows; an empty stream is a
               vacuous pass.  Otherwise the output must differ. *)
            expected = [] || List.sort Tuple.compare rows <> expected
      in
      rejected && misbehaves)

let suite =
  [
    Runner.qcheck ~long:false prop_exchange_invariance;
    Runner.qcheck ~long:false prop_serial_parallel_differential;
    Runner.wide_pool_property ~long:false
      ~name:"accepted plans agree narrow vs wide pool"
      prop_narrow_wide_differential;
    Runner.qcheck ~long:false prop_rejected_plans_misbehave;
  ]
