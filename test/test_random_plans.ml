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

(* --- narrowing against an oracle that does not narrow -------------------- *)

(* Every execution path runs [Plan.narrow], so the differentials above
   compare a narrowed plan with a narrowed plan.  Here random plans over
   two stored tables — plain scans, scans under a hand projection, and
   sliced scans under exchanges — and over literal and generated leaves,
   with joins read only in part, run
   compiled against a list evaluator written below, which knows neither
   [Compile] nor [narrow].  Narrowing must also be idempotent, keep the
   arity, and draw no planlint error the written plan did not. *)

let tables = [ "r"; "s" ]
let table_width = 4

let load_tables env rng =
  List.map
    (fun name ->
      let file =
        Env.create_table env ~name
          ~schema:
            (Volcano_tuple.Schema.of_names
               (List.init table_width (fun i ->
                    (Printf.sprintf "c%d" i, Volcano_tuple.Value.Tint))))
      in
      let rows =
        List.init (Rng.int rng 41) (fun _ ->
            Tuple.of_ints
              [ Rng.int rng 6; Rng.int rng 4; Rng.int rng 100; Rng.int rng 6 ])
      in
      List.iter
        (fun t ->
          ignore
            (Volcano_storage.Heap_file.insert file
               (Bytes.to_string (Volcano_tuple.Serial.encode t))))
        rows;
      (name, rows))
    tables

(* [k] columns of [0, arity), drawn with replacement: repeats included *)
let some_cols rng arity = List.init (1 + Rng.int rng arity) (fun _ -> Rng.int rng arity)
let lt c k = Expr.Cmp (Expr.Lt, Expr.Col c, Expr.Const (Volcano_tuple.Value.Int k))

(* A plan and its width. *)
let rec stored_plan rng depth =
  if depth = 0 then stored_leaf rng
  else
    let input, arity = stored_plan rng (depth - 1) in
    match Rng.int rng 8 with
    | 0 ->
        (Plan.Filter { pred = lt (Rng.int rng arity) (Rng.int rng 6); mode = `Compiled; input }, arity)
    | 1 ->
        let cols = some_cols rng arity in
        (Plan.Project_cols { cols; input }, List.length cols)
    | 2 ->
        let exprs =
          List.map
            (fun c -> if Rng.bool rng then Expr.Col c else Expr.Add (Expr.Col c, Expr.Const (Volcano_tuple.Value.Int 1)))
            (some_cols rng arity)
        in
        (Plan.Project_exprs { exprs; input }, List.length exprs)
    | 3 ->
        ( Plan.Aggregate
            {
              algo = (if Rng.bool rng then Plan.Hash_based else Plan.Sort_based);
              group_by = [ Rng.int rng arity ];
              aggs = [ Volcano_ops.Aggregate.Count; Volcano_ops.Aggregate.Sum (Expr.Col (Rng.int rng arity)) ];
              input;
            },
          3 )
    | 4 -> (Plan.Sort { key = [ (Rng.int rng arity, Support.Asc) ]; input }, arity)
    | 5 ->
        ( Plan.Distinct
            { algo = (if Rng.bool rng then Plan.Hash_based else Plan.Sort_based); on = List.init arity Fun.id; input },
          arity )
    | _ -> stored_join rng depth input arity

(* A join of [left] with a fresh right side, read in part: a projection
   of some of its columns sits above it. *)
and stored_join rng depth left lw =
  let right, rw = if depth = 1 then stored_leaf rng else stored_plan rng (depth - 1) in
  let kind =
    match Rng.int rng 6 with
    | 0 -> Match_op.Join
    | 1 -> Match_op.Left_outer
    | 2 -> Match_op.Right_outer
    | 3 -> Match_op.Full_outer
    | 4 -> Match_op.Semi
    | _ -> Match_op.Anti
  in
  let join, arity =
    match Rng.int rng 4 with
    | 0 when depth = 1 ->
        (* nested loops only over two leaves: at most 40 x 40 pairs *)
        if Rng.bool rng then (Plan.Cross { left; right }, lw + rw)
        else
          ( Plan.Theta_join
              {
                pred = Expr.Cmp ((if Rng.bool rng then Expr.Eq else Expr.Lt), Expr.Col (Rng.int rng lw), Expr.Col (lw + Rng.int rng rw));
                left;
                right;
              },
            lw + rw )
    | _ ->
        ( Plan.Match
            {
              algo = (if Rng.bool rng then Plan.Hash_based else Plan.Sort_based);
              kind;
              left_key = [ Rng.int rng lw ];
              right_key = [ Rng.int rng rw ];
              left;
              right;
            },
          Match_op.output_arity kind ~left_arity:lw ~right_arity:rw )
  in
  let cols = some_cols rng arity in
  (Plan.Project_cols { cols; input = join }, List.length cols)

and stored_leaf rng =
  let table = List.nth tables (Rng.int rng 2) in
  match Rng.int rng 6 with
  | 0 -> (Plan.Scan_table table, table_width)
  | 1 ->
      let cols = some_cols rng table_width in
      (Plan.Project_cols { cols; input = Plan.Scan_table table }, List.length cols)
  | 2 ->
      (* each producer scans its slice of the table *)
      let chain =
        match Rng.int rng 3 with
        | 0 -> Plan.Scan_table_slice table
        | 1 -> Plan.Filter { pred = lt (Rng.int rng table_width) 4; mode = `Compiled; input = Plan.Scan_table_slice table }
        | _ -> Plan.Project_cols { cols = [ 3; 1; 0; 2 ]; input = Plan.Scan_table_slice table }
      in
      let partition =
        if Rng.bool rng then Exchange.Round_robin else Exchange.Hash_on [ Rng.int rng table_width ]
      in
      (Plan.Exchange { cfg = random_cfg ~partition rng; input = chain }, table_width)
  | 3 ->
      let tuples = List.init (Rng.int rng 8) (fun i -> Tuple.of_ints [ i mod 6; i; 7 ]) in
      (Plan.Scan_list { arity = 3; tuples }, 3)
  | 4 -> (Plan.Generate { arity = 3; count = Rng.int rng 21; gen = generated }, 3)
  | _ ->
      (* each producer generates its slice *)
      let input = Plan.Generate_slice { arity = 3; count = Rng.int rng 21; gen = generated } in
      (Plan.Exchange { cfg = random_cfg rng; input }, 3)

and generated i = Tuple.of_ints [ i mod 6; i mod 4; i ]

(* The oracle: the written plan evaluated over lists, with the engine's
   value semantics — a comparison with [Null] is false, arithmetic and
   [Sum] pass it through, keys and groups compare [Null] equal. *)
let rec reference rows plan =
  let eval t = function
    | Expr.Col c -> t.(c)
    | Expr.Const v -> v
    | Expr.Add (Expr.Col c, Expr.Const (Volcano_tuple.Value.Int k)) -> (
        match t.(c) with Volcano_tuple.Value.Int v -> Volcano_tuple.Value.Int (v + k) | v -> v)
    | _ -> invalid_arg "reference: expression"
  in
  let holds op a b =
    a <> Volcano_tuple.Value.Null && b <> Volcano_tuple.Value.Null
    &&
    let c = Volcano_tuple.Value.compare a b in
    match op with Expr.Lt -> c < 0 | Expr.Eq -> c = 0 | _ -> invalid_arg "reference: comparison"
  in
  let same a b = Volcano_tuple.Value.compare a b = 0 in
  let nulls n = Array.make n Volcano_tuple.Value.Null in
  let concat = Array.append in
  match plan with
  | Plan.Scan_table t | Plan.Scan_table_slice t -> List.assoc t rows
  | Plan.Scan_list { tuples; _ } -> tuples
  | Plan.Generate { count; gen; _ } | Plan.Generate_slice { count; gen; _ } -> List.init count gen
  | Plan.Exchange { input; _ } | Plan.Sort { input; _ } -> reference rows input
  | Plan.Filter { pred = Expr.Cmp (op, a, b); input; _ } ->
      List.filter (fun t -> holds op (eval t a) (eval t b)) (reference rows input)
  | Plan.Project_cols { cols; input } ->
      List.map (fun t -> Array.of_list (List.map (Array.get t) cols)) (reference rows input)
  | Plan.Project_exprs { exprs; input } ->
      List.map (fun t -> Array.of_list (List.map (eval t) exprs)) (reference rows input)
  | Plan.Distinct { input; _ } -> List.sort_uniq Tuple.compare (reference rows input)
  | Plan.Aggregate { group_by = [ g ]; aggs = [ _; Volcano_ops.Aggregate.Sum (Expr.Col s) ]; input; _ } ->
      let input = reference rows input in
      let keys = List.sort_uniq Volcano_tuple.Value.compare (List.map (fun t -> t.(g)) input) in
      List.map
        (fun k ->
          let group = List.filter (fun t -> same t.(g) k) input in
          let sum =
            List.fold_left
              (fun acc t ->
                match (acc, t.(s)) with
                | Volcano_tuple.Value.Int a, Volcano_tuple.Value.Int b -> Volcano_tuple.Value.Int (a + b)
                | Volcano_tuple.Value.Null, v | v, Volcano_tuple.Value.Null -> v
                | _ -> invalid_arg "reference: sum")
              Volcano_tuple.Value.Null group
          in
          [| k; Volcano_tuple.Value.Int (List.length group); sum |])
        keys
  | Plan.Cross { left; right } ->
      let right = reference rows right in
      List.concat_map (fun l -> List.map (concat l) right) (reference rows left)
  | Plan.Theta_join { pred = Expr.Cmp (op, a, b); left; right } ->
      List.filter (fun t -> holds op (eval t a) (eval t b)) (reference rows (Plan.Cross { left; right }))
  | Plan.Match { kind; left_key = [ lk ]; right_key = [ rk ]; left; right; _ } ->
      let lw = plan_width left and rw = plan_width right in
      let left = reference rows left and right = reference rows right in
      let partners l = List.filter (fun r -> same l.(lk) r.(rk)) right in
      let lonely_right = List.filter (fun r -> not (List.exists (fun l -> same l.(lk) r.(rk)) left)) right in
      let pairs = List.concat_map (fun l -> List.map (concat l) (partners l)) left in
      let lonely_left = List.filter (fun l -> partners l = []) left in
      let pad_right = List.map (fun l -> concat l (nulls rw)) lonely_left in
      let pad_left = List.map (fun r -> concat (nulls lw) r) lonely_right in
      (match kind with
      | Match_op.Join -> pairs
      | Match_op.Left_outer -> pairs @ pad_right
      | Match_op.Right_outer -> pairs @ pad_left
      | Match_op.Full_outer -> pairs @ pad_right @ pad_left
      | Match_op.Semi -> List.filter (fun l -> partners l <> []) left
      | Match_op.Anti -> lonely_left
      | _ -> invalid_arg "reference: match kind")
  | _ -> invalid_arg "reference: node"

(* The written width, worked out without the catalog. *)
and plan_width = function
  | Plan.Scan_table _ | Plan.Scan_table_slice _ -> table_width
  | Plan.Scan_list { arity; _ } | Plan.Generate { arity; _ } | Plan.Generate_slice { arity; _ } -> arity
  | Plan.Project_cols { cols; _ } -> List.length cols
  | Plan.Project_exprs { exprs; _ } -> List.length exprs
  | Plan.Aggregate _ -> 3
  | Plan.Cross { left; right } | Plan.Theta_join { left; right; _ } -> plan_width left + plan_width right
  | Plan.Match { kind; left; right; _ } ->
      Match_op.output_arity kind ~left_arity:(plan_width left) ~right_arity:(plan_width right)
  | Plan.Exchange { input; _ } | Plan.Filter { input; _ } | Plan.Sort { input; _ } | Plan.Distinct { input; _ } ->
      plan_width input
  | _ -> invalid_arg "plan_width"

let prop_narrow_against_reference =
  QCheck.Test.make ~name:"narrowed stored-table plans match a list evaluator"
    ~count:1000
    QCheck.(pair int64 (int_range 1 3))
    (fun (seed, depth) ->
      let env = Env.create ~frames:128 ~page_size:512 () in
      let rng = Rng.create seed in
      let rows = load_tables env rng in
      let written, width = stored_plan rng depth in
      let narrowed = Plan.narrow env written in
      let errors plan =
        List.map (fun (d : Volcano_plan.Diag.t) -> d.code) (Volcano_plan.Diag.errors (Compile.analyze env plan))
      in
      let before = errors written in
      let fresh = List.filter (fun c -> not (List.mem c before)) (errors narrowed) in
      let expected = List.sort Tuple.compare (reference rows written) in
      let fail what =
        QCheck.Test.fail_reportf "%s\nwritten:\n%anarrowed:\n%a" what Plan.pp written Plan.pp narrowed
      in
      let ok =
        if Plan.narrow env narrowed != narrowed then fail "narrowing again changed the plan"
        else if Plan.arity env written <> width || Plan.arity env narrowed <> width then
          fail "narrowing changed the arity"
        else if before <> [] || fresh <> [] then
          fail ("planlint errors: " ^ String.concat ", " (before @ fresh))
        else if sorted_run env written <> expected then fail "rows differ from the list evaluator"
        else true
      in
      Bufpool.assert_quiescent ~what:"narrowing oracle" (Env.buffer env);
      Sched.assert_quiescent ~what:"narrowing oracle" (Sched.default ());
      ok)

let suite =
  [
    Runner.qcheck ~long:false prop_exchange_invariance;
    Runner.qcheck ~long:false prop_serial_parallel_differential;
    Runner.wide_pool_property ~long:false
      ~name:"accepted plans agree narrow vs wide pool"
      prop_narrow_wide_differential;
    Runner.qcheck ~long:false prop_rejected_plans_misbehave;
    Runner.qcheck ~long:false prop_narrow_against_reference;
  ]
