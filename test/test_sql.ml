(* The SQL front end: parser round-trip fixpoint, binder error cases,
   optimizer EXPLAIN shape, and the optimizer-vs-hand-plan result
   differential over serial, pooled/batched, and sharded-slice
   executions. *)

module Sql = Volcano_sql.Sql
module Ast = Volcano_sql.Ast
module Binder = Volcano_sql.Binder
module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Partition = Volcano_plan.Partition
module Session = Volcano_plan.Session
module Exchange = Volcano.Exchange
module Expr = Volcano_tuple.Expr
module Value = Volcano_tuple.Value
module Tuple = Volcano_tuple.Tuple
module Support = Volcano_tuple.Support
module Agg = Volcano_ops.Aggregate
module W = Volcano_wisconsin.Wisconsin
module Rng = Volcano_util.Rng

let check = Alcotest.check

(* --- parser: canonical round trip -------------------------------------- *)

(* Canonical strings: parse → print must be the identity. *)
let canonical =
  [
    "SELECT * FROM emp";
    "SELECT a.unique1 FROM emp AS a";
    "SELECT (unique1 + 1) AS next FROM emp WHERE (unique1 < 10)";
    "SELECT * FROM emp WHERE ((two = 0) AND (NOT (ten = 3)))";
    "SELECT * FROM emp WHERE ((unique1 * 2) >= (unique2 - 1))";
    "SELECT * FROM emp WHERE (stringu1 IS NOT NULL)";
    "SELECT ten, COUNT(*), SUM(unique1) FROM emp GROUP BY ten";
    "SELECT COUNT(*), AVG(unique1) FROM emp";
    "SELECT DISTINCT two, four FROM emp ORDER BY two ASC, four DESC";
    "SELECT * FROM emp ORDER BY unique1 ASC LIMIT 7";
    "SELECT a.unique1, b.unique2 FROM emp AS a JOIN emp AS b ON (a.unique1 = \
     b.unique2)";
    "SELECT i FROM generate(100) WHERE ((i % 3) = 0)";
    "SELECT unique1 FROM wisconsin(50, 7)";
    "SELECT unique1 FROM emp WHERE (unique1 < 3) UNION ALL SELECT unique2 \
     FROM emp WHERE (unique2 > 40)";
    "SELECT \"select\" FROM \"weird table\"";
    "SELECT * FROM emp WHERE (stringu1 = 'it''s')";
  ]

let test_round_trip () =
  List.iter
    (fun q -> check Alcotest.string q q (Sql.print (Sql.parse q)))
    canonical

(* Non-canonical spellings normalize to the same canonical form. *)
let test_normalization () =
  let cases =
    [
      ("select * from emp", "SELECT * FROM emp");
      ( "SELECT unique1+1 next FROM emp",
        "SELECT (unique1 + 1) AS next FROM emp" );
      ( "select * from emp where two=0 and ten<>3;",
        "SELECT * FROM emp WHERE ((two = 0) AND (ten <> 3))" );
      ( "SELECT ten FROM emp ORDER BY ten",
        "SELECT ten FROM emp ORDER BY ten ASC" );
      ( "SELECT a.unique1 FROM emp a INNER JOIN emp b ON a.unique1=b.unique2",
        "SELECT a.unique1 FROM emp AS a JOIN emp AS b ON (a.unique1 = \
         b.unique2)" );
    ]
  in
  List.iter
    (fun (src, want) ->
      check Alcotest.string src want (Sql.print (Sql.parse src)))
    cases

(* print → parse → print is a fixpoint even for machine-built ASTs. *)
let test_print_parse_fixpoint () =
  let rng = Rng.create 41L in
  for _ = 1 to 200 do
    let rec num depth =
      if depth = 0 then
        match Rng.int rng 3 with
        | 0 -> Ast.Col (None, "unique1")
        | 1 -> Ast.Int (Rng.int rng 100)
        | _ -> Ast.Col (Some "a", "ten")
      else
        let l = num (depth - 1) and r = num (depth - 1) in
        let op =
          match Rng.int rng 5 with
          | 0 -> Ast.Add
          | 1 -> Ast.Sub
          | 2 -> Ast.Mul
          | 3 -> Ast.Div
          | _ -> Ast.Mod
        in
        if Rng.int rng 4 = 0 then Ast.Neg l else Ast.Bin (op, l, r)
    in
    let e = num (1 + Rng.int rng 3) in
    let q =
      Ast.Select
        {
          distinct = false;
          items = [ Ast.Sel { expr = e; alias = None } ];
          from = Ast.Table { name = "emp"; alias = Some "a" };
          joins = [];
          where = None;
          group_by = [];
          order_by = [];
          limit = None;
        }
    in
    let s = Ast.to_string q in
    check Alcotest.string "fixpoint" s (Sql.print (Sql.parse s))
  done

let expect_error ?(substring = "") f =
  match f () with
  | exception Sql.Error m ->
      if substring <> "" then
        check Alcotest.bool
          (Printf.sprintf "error %S mentions %S" m substring)
          true
          (let re = Str.regexp_string substring in
           try
             ignore (Str.search_forward re m 0);
             true
           with Not_found -> false)
  | _ -> Alcotest.fail "expected Sql.Error"

let test_parse_errors () =
  expect_error ~substring:"parse error" (fun () -> Sql.parse "SELECT");
  expect_error (fun () -> Sql.parse "SELECT * FROM");
  expect_error (fun () -> Sql.parse "SELECT * FROM emp WHERE");
  expect_error (fun () -> Sql.parse "SELECT * FROM rand(5)");
  expect_error (fun () -> Sql.parse "SELECT * FROM emp LIMIT -1");
  expect_error ~substring:"lex error" (fun () ->
      Sql.parse "SELECT * FROM emp WHERE x = 'unterminated");
  expect_error (fun () -> Sql.parse "SELECT * FROM emp UNION SELECT 1")

(* --- the test catalog --------------------------------------------------- *)

let rows = 2000
let parts = 3

(* One environment per execution slice, same stored data in each:
   [env_plain] disables batching, [env_batched] uses the default batch
   size — the optimizer's plan must agree with the hand plan on both. *)
let load_env ~batch_size () =
  let env = Env.create ~frames:256 ~batch_size () in
  W.load ~env ~name:"emp" ~n:rows ();
  (* a hash-sharded and a range-sharded stored table, partition files on
     "sites" 0..parts-1 *)
  W.load ~env ~name:"hemp" ~n:rows ();
  ignore
    (Partition.split env ~table:"hemp"
       ~spec:(Partition.hash_spec [ W.column "ten" ])
       ~parts ());
  W.load ~env ~name:"remp" ~n:rows ();
  ignore
    (Partition.split env ~table:"remp"
       ~spec:
         (Partition.range_spec ~col:(W.column "unique1")
            ~bounds:[| Value.Int 666; Value.Int 1333 |])
       ~parts ());
  env

let env_plain = lazy (load_env ~batch_size:0 ())
let env_batched = lazy (load_env ~batch_size:64 ())

(* --- binder ------------------------------------------------------------- *)

let bind_err ?substring sql =
  expect_error ?substring (fun () ->
      Sql.bind (Lazy.force env_plain) (Sql.parse sql))

let test_binder_errors () =
  bind_err ~substring:"unknown table" "SELECT * FROM nope";
  bind_err ~substring:"unknown column" "SELECT wat FROM emp";
  bind_err ~substring:"ambiguous"
    "SELECT unique1 FROM emp AS a INNER JOIN emp AS b ON (a.unique1 = \
     b.unique1)";
  bind_err ~substring:"COUNT" "SELECT COUNT(unique1) FROM emp";
  bind_err ~substring:"aggregate" "SELECT SUM(COUNT(*)) FROM emp";
  bind_err ~substring:"WHERE" "SELECT * FROM emp WHERE (SUM(unique1) > 3)";
  bind_err ~substring:"GROUP BY" "SELECT unique1, COUNT(*) FROM emp GROUP BY ten";
  bind_err ~substring:"GROUP BY" "SELECT COUNT(*) FROM emp GROUP BY (ten + 1)";
  bind_err ~substring:"union-compatible"
    "SELECT unique1, unique2 FROM emp UNION ALL SELECT unique1 FROM emp";
  bind_err ~substring:"ORDER BY" "SELECT unique1 FROM emp ORDER BY 3 ASC";
  bind_err "SELECT (stringu1 + 1) FROM emp";
  bind_err "SELECT * FROM emp WHERE (stringu1 = 1)"

(* The binder decomposes AVG itself: no [Agg.Avg] survives binding, so
   serial and parallel plans share one (integer) AVG semantics. *)
let test_binder_avg_decomposition () =
  match Sql.bind (Lazy.force env_plain) (Sql.parse "SELECT AVG(unique1), COUNT(*) FROM emp") with
  | Binder.Q_union _ -> Alcotest.fail "expected a select"
  | Binder.Q_select s -> (
      match s.Binder.shape with
      | Binder.Flat _ -> Alcotest.fail "expected grouped shape"
      | Binder.Grouped { aggs; post; _ } ->
          check Alcotest.bool "no Avg slot" false
            (List.exists (function Agg.Avg _ -> true | _ -> false) aggs);
          (* two slots (SUM, COUNT) serve both items *)
          check Alcotest.int "dedup'd slots" 2 (List.length aggs);
          check Alcotest.int "two outputs" 2 (List.length post))

(* --- optimizer ---------------------------------------------------------- *)

let rec plan_nodes p = p :: List.concat_map plan_nodes (Plan.children p)

let keyed_exchanges p =
  List.filter_map
    (function
      | Plan.Exchange { cfg; _ } | Plan.Exchange_merge { cfg; _ } -> (
          match cfg.Exchange.partition with
          | Exchange.Hash_on _ | Exchange.Range_on _ -> Some cfg
          | Exchange.Round_robin | Exchange.Custom _ | Exchange.Broadcast ->
              None)
      | _ -> None)
    (plan_nodes p)

let exchanges p =
  List.filter
    (function
      | Plan.Exchange _ | Plan.Exchange_merge _ -> true | _ -> false)
    (plan_nodes p)

let optimize ?(workers = parts) sql =
  Sql.plan ~workers (Lazy.force env_plain) sql

(* The optimizer prices the VL501 [sched-dop] oversubscription advisory
   instead of pruning on it; any other diagnostic rules a plan out. *)
let pruning diags =
  List.filter (fun (d : Volcano_plan.Diag.t) -> d.code <> "sched-dop") diags

(* Every chosen plan carries no diagnostic but VL501, by construction. *)
let assert_clean ?(workers = parts) plan =
  let env = Lazy.force env_plain in
  check Alcotest.int "no diagnostics but VL501" 0
    (List.length (pruning (Compile.analyze ~workers env plan)))

let test_optimizer_serial_when_alone () =
  (* workers = 1: nothing to parallelize with, so no exchanges at all *)
  let c = optimize ~workers:1 "SELECT ten, COUNT(*) FROM emp GROUP BY ten" in
  check Alcotest.int "no exchanges" 0 (List.length (exchanges c.plan));
  assert_clean ~workers:1 c.plan;
  (* a pool of no workers does not exist *)
  Alcotest.check_raises "workers = 0"
    (Invalid_argument "Optimizer.optimize: workers must be positive")
    (fun () -> ignore (optimize ~workers:0 "SELECT i FROM generate(10)"))

let test_optimizer_closure_free_generate () =
  let c = optimize ~workers:1 "SELECT i FROM generate(10)" in
  check Alcotest.bool "generate_range leaf" true
    (List.exists
       (function Plan.Generate_range _ -> true | _ -> false)
       (plan_nodes c.plan));
  check Alcotest.bool "no Choose, no closure leaves" true
    (List.for_all
       (function
         | Plan.Choose _ | Plan.Generate _ | Plan.Generate_slice _ -> false
         | _ -> true)
       (plan_nodes c.plan))

let test_optimizer_sharded_scan_alignment () =
  (* grouping a hash-sharded table on its shard key: the optimizer must
     pick degree = parts, scan the partition files, aggregate in one
     phase (groups are co-located) and gather — no repartitioning. *)
  let c = optimize "SELECT ten, COUNT(*) FROM hemp GROUP BY ten" in
  check Alcotest.int "one gather, no repartition" 1
    (List.length (exchanges c.plan));
  check Alcotest.int "no keyed exchange needed" 0
    (List.length (keyed_exchanges c.plan));
  assert_clean c.plan

let test_optimizer_acceptance_shape () =
  (* the ISSUE's acceptance query: join + group-by over a sharded table,
     written as one SQL string.  The chosen plan must be parallel with at
     least one non-round-robin exchange, and pass the analyzer clean. *)
  let sql =
    "SELECT h.ten, COUNT(*), SUM(e.unique1) FROM hemp AS h INNER JOIN emp \
     AS e ON (h.unique1 = e.unique1) GROUP BY h.ten"
  in
  let c = optimize sql in
  check Alcotest.bool "places keyed exchanges" true
    (keyed_exchanges c.plan <> []);
  assert_clean c.plan;
  (* and it computes the same answer as the hand-built serial plan *)
  let env = Lazy.force env_plain in
  let hand =
    Plan.Aggregate
      {
        algo = Plan.Hash_based;
        group_by = [ W.column "ten" ];
        aggs = [ Agg.Count; Agg.Sum (Expr.Col (16 + W.column "unique1")) ];
        input =
          Plan.Match
            {
              algo = Plan.Hash_based;
              kind = Volcano_ops.Match_op.Join;
              left_key = [ W.column "unique1" ];
              right_key = [ W.column "unique1" ];
              left = Plan.Scan_table "hemp";
              right = Plan.Scan_table "emp";
            };
      }
  in
  let sorted l = List.sort Tuple.compare l in
  check Alcotest.int "same rows" (List.length (Runner.run env hand))
    (List.length (Runner.run env c.plan));
  check Alcotest.bool "same result" true
    (sorted (Runner.run env c.plan) = sorted (Runner.run env hand))

(* The chosen plan of the acceptance query, pinned: its shape is the
   benchmark's join + group-by, so a plan change shows here first.  The
   degree-3 plan wins on a 2-worker pool too (VL501 is priced). *)
let test_optimizer_acceptance_golden () =
  let sql =
    "SELECT h.ten, COUNT(*), SUM(e.unique1) FROM hemp AS h INNER JOIN emp \
     AS e ON (h.unique1 = e.unique1) GROUP BY h.ten"
  in
  let golden =
    String.concat "\n"
      [
        "exchange (degree=3 packet=83 flow=4 partition=round-robin)";
        "  hash-aggregate by [0] (2 aggs)";
        "    exchange (degree=3 packet=83 flow=4 partition=hash[0])";
        "      hash-aggregate by [1] (2 aggs)";
        "        hash-join on [0]=[0]";
        "          exchange (degree=3 packet=83 flow=4 partition=hash[0])";
        "            project [0,4]";
        "              scan-slice hemp";
        "          exchange (degree=3 packet=83 flow=4 partition=hash[0])";
        "            project [0]";
        "              scan-slice emp";
        "";
      ]
  in
  List.iter
    (fun workers ->
      check Alcotest.string
        (Printf.sprintf "chosen plan, %d workers" workers)
        golden
        (Format.asprintf "%a" Plan.pp (optimize ~workers sql).plan))
    [ 2; parts ]

let test_optimizer_small_pool_priced () =
  (* the acceptance query on a pool smaller than hemp's shard width: the
     degree-3 plan oversubscribes 2 workers, which VL501 still reports,
     but the advisory is priced (work / min degree workers), not a veto *)
  let sql =
    "SELECT h.ten, COUNT(*), SUM(e.unique1) FROM hemp AS h INNER JOIN emp \
     AS e ON (h.unique1 = e.unique1) GROUP BY h.ten"
  in
  let c = optimize ~workers:2 sql in
  let keyed = keyed_exchanges c.plan in
  check Alcotest.bool "places keyed exchanges" true (keyed <> []);
  check Alcotest.(list int) "every keyed edge at degree 3"
    (List.map (fun _ -> parts) keyed)
    (List.map (fun cfg -> cfg.Exchange.degree) keyed);
  let diags = Compile.analyze ~workers:2 (Lazy.force env_plain) c.plan in
  check Alcotest.(list string) "VL501 still reported" [ "sched-dop" ]
    (List.sort_uniq compare
       (List.map (fun (d : Volcano_plan.Diag.t) -> d.code) diags));
  check Alcotest.(list bool) "serial not chosen (higher cost)" [ true ]
    (List.filter_map
       (fun n ->
         if String.starts_with ~prefix:"serial" n then
           Some (String.ends_with ~suffix:"not chosen (higher cost)" n)
         else None)
       c.notes)

let test_optimizer_range_alignment () =
  (* joining a range-sharded table on its shard column: the other side
     must be Range_on-partitioned with the catalog's bounds, not hashed *)
  let sql =
    "SELECT r.unique1 FROM remp AS r INNER JOIN emp AS e ON (r.unique1 = \
     e.unique1)"
  in
  let c = optimize sql in
  let ranged =
    List.filter
      (fun cfg ->
        match cfg.Exchange.partition with
        | Exchange.Range_on _ -> true
        | _ -> false)
      (keyed_exchanges c.plan)
  in
  check Alcotest.bool "range-aligned repartition" true (ranged <> []);
  assert_clean c.plan

(* --- leaf column pruning --- *)

(* The leaf projections of a plan: (table, columns) per [Project_cols]
   sitting directly on a table scan. *)
let leaf_projections plan =
  List.filter_map
    (function
      | Plan.Project_cols
          { cols; input = Plan.Scan_table t | Plan.Scan_table_slice t } ->
          Some (t, cols)
      | _ -> None)
    (plan_nodes plan)

let test_pruning_olap_join () =
  let sql =
    "SELECT h.ten, COUNT(*), SUM(e.unique1) FROM hemp AS h INNER JOIN emp \
     AS e ON (h.unique1 = e.unique1) GROUP BY h.ten ORDER BY h.ten"
  in
  List.iter
    (fun workers ->
      let leaves =
        List.sort compare
          (List.map
             (fun (t, cols) -> (t, List.sort compare cols))
             (leaf_projections (optimize ~workers sql).plan))
      in
      check
        Alcotest.(list (pair string (list int)))
        (Printf.sprintf "leaf projections, %d workers" workers)
        [ ("emp", [ W.column "unique1" ]);
          ("hemp", List.sort compare [ W.column "unique1"; W.column "ten" ]) ]
        leaves)
    [ 1; parts ]

(* Generated sources narrow like tables: a join over two [wisconsin(...)]
   sources hashes and ships only the columns read above it and its keys,
   so each repartitioning exchange sits on a projection of its generator. *)
let test_pruning_generated_join () =
  let sql =
    "SELECT a.unique1, b.ten FROM wisconsin(2000, 1) AS a INNER JOIN \
     wisconsin(2000, 2) AS b ON (a.unique1 = b.unique2)"
  in
  let c = optimize ~workers:2 sql in
  let shipped =
    List.map
      (function
        | Plan.Exchange { input = Plan.Project_cols { cols; input = Plan.Generate_slice _ }; _ } ->
            cols
        | p -> Alcotest.failf "keyed exchange over %s" (Format.asprintf "%a" Plan.pp p))
      (List.filter_map
         (function
           | Plan.Exchange { cfg = { partition = Exchange.Hash_on _; _ }; _ } as x -> Some x
           | _ -> None)
         (plan_nodes c.plan))
  in
  check
    Alcotest.(list (list int))
    "each side ships its projection"
    [ [ W.column "unique1" ];
      List.sort compare [ W.column "unique2"; W.column "ten" ] ]
    shipped;
  assert_clean ~workers:2 c.plan

let test_pruning_select_star () =
  List.iter
    (fun sql ->
      check Alcotest.int ("no projection: " ^ sql) 0
        (List.length
           (List.filter
              (function Plan.Project_cols _ -> true | _ -> false)
              (plan_nodes (optimize sql).plan))))
    [ "SELECT * FROM emp"; "SELECT * FROM emp WHERE (ten = 3)" ]

let test_pruning_keeps_filter_columns () =
  (* ten is filtered on but never output: it must survive the leaf
     projection, which sits below the filter *)
  let sql = "SELECT unique2 FROM emp WHERE (ten = 3)" in
  List.iter
    (fun workers ->
      let c = optimize ~workers sql in
      let filtered_leaf =
        List.exists
          (function
            | Plan.Filter
                {
                  input =
                    Plan.Project_cols
                      { cols; input = Plan.Scan_table _ | Plan.Scan_table_slice _ };
                  _;
                } ->
                List.sort compare cols
                = List.sort compare [ W.column "unique2"; W.column "ten" ]
            | _ -> false)
          (plan_nodes c.plan)
      in
      check Alcotest.bool
        (Printf.sprintf "filter over a two-column leaf, %d workers" workers)
        true filtered_leaf;
      assert_clean ~workers c.plan;
      let env = Lazy.force env_plain in
      let hand =
        Plan.Project_exprs
          {
            exprs = [ Expr.Col (W.column "unique2") ];
            input =
              Plan.Filter
                {
                  pred =
                    Expr.Cmp
                      ( Expr.Eq,
                        Expr.Col (W.column "ten"),
                        Expr.Const (Value.Int 3) );
                  mode = `Compiled;
                  input = Plan.Scan_table "emp";
                };
          }
      in
      let sorted l = List.sort Tuple.compare l in
      check Alcotest.bool "same rows as the hand plan" true
        (sorted (Runner.run env c.plan) = sorted (Runner.run env hand)))
    [ 1; parts ]

let test_explain_mentions_decisions () =
  let env = Lazy.force env_plain in
  let s = Sql.explain ~workers:parts env "SELECT ten, COUNT(*) FROM hemp GROUP BY ten" in
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "explain mentions %S" needle) true
        (try
           ignore (Str.search_forward (Str.regexp_string needle) s 0);
           true
         with Not_found -> false))
    [ "-- optimizer --"; "chosen"; "serial"; "degree 3" ]

let test_session_front_door () =
  Volcano_sql.Sql.install ();
  Session.with_session ~frames:256 @@ fun s ->
  W.load ~env:(Session.env s) ~name:"emp" ~n:rows ();
  let rows' = Session.query s "SELECT COUNT(*) FROM emp" in
  check Alcotest.int "one row" 1 (List.length rows');
  check Alcotest.int "count" rows
    (Tuple.int_exn (List.hd rows') 0);
  let text = Session.explain s "SELECT COUNT(*) FROM emp" in
  check Alcotest.bool "explain text" true (String.length text > 0);
  (* `Sql inputs reach exec/profile/analyze too *)
  check Alcotest.int "exec_count via SQL" 1
    (Session.exec_count s (`Sql "SELECT COUNT(*) FROM emp"));
  check Alcotest.int "analyze clean" 0
    (List.length (Session.analyze s (`Sql "SELECT COUNT(*) FROM emp")))

(* --- differential corpus ------------------------------------------------ *)

(* Each shape yields (sql, equivalent hand-built serial plan).  The SQL
   goes through the whole front end (parse → bind → optimize) with a
   seed-dependent worker budget; both plans run on the batching and
   non-batching environments and must agree up to row order. *)

let u1 = W.column "unique1"
let u2 = W.column "unique2"
let ten = W.column "ten"
let two = W.column "two"
let four = W.column "four"

let filt col k input =
  Plan.Filter
    {
      pred = Expr.Cmp (Expr.Lt, Expr.Col col, Expr.Const (Value.Int k));
      mode = `Compiled;
      input;
    }

let shape rng =
  match Rng.int rng 8 with
  | 0 ->
      let k = 1 + Rng.int rng rows in
      ( Printf.sprintf
          "SELECT unique1, unique2 FROM emp WHERE (unique1 < %d)" k,
        Plan.Project_exprs
          {
            exprs = [ Expr.Col u1; Expr.Col u2 ];
            input = filt u1 k (Plan.Scan_table "emp");
          } )
  | 1 ->
      ( "SELECT ten, COUNT(*), SUM(unique1) FROM emp GROUP BY ten",
        Plan.Aggregate
          {
            algo = Plan.Hash_based;
            group_by = [ ten ];
            aggs = [ Agg.Count; Agg.Sum (Expr.Col u1) ];
            input = Plan.Scan_table "emp";
          } )
  | 2 ->
      let k = 1 + Rng.int rng rows in
      (* scalar aggregate incl. AVG's integer decomposition *)
      ( Printf.sprintf
          "SELECT COUNT(*), SUM(unique1), AVG(unique1) FROM emp WHERE \
           (unique1 < %d)"
          k,
        Plan.Project_exprs
          {
            exprs =
              [ Expr.Col 0; Expr.Col 1; Expr.Div (Expr.Col 1, Expr.Col 0) ];
            input =
              Plan.Aggregate
                {
                  algo = Plan.Hash_based;
                  group_by = [];
                  aggs = [ Agg.Count; Agg.Sum (Expr.Col u1) ];
                  input = filt u1 k (Plan.Scan_table "emp");
                };
          } )
  | 3 ->
      let k = 1 + Rng.int rng rows in
      ( Printf.sprintf
          "SELECT a.unique1, b.unique2 FROM emp AS a INNER JOIN emp AS b ON \
           (a.unique1 = b.unique2) WHERE (a.unique1 < %d)"
          k,
        Plan.Project_exprs
          {
            exprs = [ Expr.Col u1; Expr.Col (16 + u2) ];
            input =
              Plan.Match
                {
                  algo = Plan.Hash_based;
                  kind = Volcano_ops.Match_op.Join;
                  left_key = [ u1 ];
                  right_key = [ u2 ];
                  left = filt u1 k (Plan.Scan_table "emp");
                  right = Plan.Scan_table "emp";
                };
          } )
  | 4 ->
      ( "SELECT DISTINCT two, four FROM emp",
        Plan.Distinct
          {
            algo = Plan.Hash_based;
            on = [ 0; 1 ];
            input =
              Plan.Project_exprs
                {
                  exprs = [ Expr.Col two; Expr.Col four ];
                  input = Plan.Scan_table "emp";
                };
          } )
  | 5 ->
      let k = 1 + Rng.int rng rows in
      ( Printf.sprintf
          "SELECT unique2, unique1 FROM emp WHERE (unique1 < %d) ORDER BY \
           unique1 DESC"
          k,
        Plan.Sort
          {
            key = [ (1, Support.Desc) ];
            input =
              Plan.Project_exprs
                {
                  exprs = [ Expr.Col u2; Expr.Col u1 ];
                  input = filt u1 k (Plan.Scan_table "emp");
                };
          } )
  | 6 ->
      let k = Rng.int rng rows and j = Rng.int rng rows in
      ( Printf.sprintf
          "SELECT unique1 FROM emp WHERE (unique1 < %d) UNION ALL SELECT \
           unique1 FROM emp WHERE (unique1 >= %d)"
          k j,
        Plan.Union_all
          {
            left =
              Plan.Project_exprs
                {
                  exprs = [ Expr.Col u1 ];
                  input = filt u1 k (Plan.Scan_table "emp");
                };
            right =
              Plan.Project_exprs
                {
                  exprs = [ Expr.Col u1 ];
                  input =
                    Plan.Filter
                      {
                        pred =
                          Expr.Cmp
                            (Expr.Ge, Expr.Col u1, Expr.Const (Value.Int j));
                        mode = `Compiled;
                        input = Plan.Scan_table "emp";
                      };
                };
          } )
  | _ ->
      (* the sharded slice: partition files + catalog placement drive
         the degree and partitioning choices *)
      let t = if Rng.int rng 2 = 0 then "hemp" else "remp" in
      ( Printf.sprintf "SELECT ten, COUNT(*) FROM %s GROUP BY ten" t,
        Plan.Aggregate
          {
            algo = Plan.Hash_based;
            group_by = [ ten ];
            aggs = [ Agg.Count ];
            input = Plan.Scan_table t;
          } )

let sorted_run env plan = List.sort Tuple.compare (Runner.run env plan)

(* A hand plan that sorts at its root fixes the row order, and the
   optimizer's plan must return its rows in that order; any other is
   compared up to row order. *)
let same_rows env plan hand =
  match hand with
  | Plan.Sort _ | Plan.Limit { input = Plan.Sort _; _ } ->
      Runner.run env plan = Runner.run env hand
  | _ -> sorted_run env plan = sorted_run env hand

let prop_optimizer_differential =
  QCheck.Test.make
    ~name:"optimizer matches hand plans across 1000 seeds" ~count:1000
    QCheck.int64 (fun seed ->
      let rng = Rng.create seed in
      let sql, hand = shape rng in
      (* worker budgets: serial, a pool smaller than the shard width,
         and the shard-aligned width itself *)
      let workers = [| 1; 2; parts |].(Rng.int rng 3) in
      let envs = [ Lazy.force env_plain; Lazy.force env_batched ] in
      List.for_all
        (fun env ->
          let choice = Sql.plan ~workers env sql in
          pruning (Compile.analyze ~workers env choice.Volcano_sql.Optimizer.plan)
          = []
          && same_rows env choice.Volcano_sql.Optimizer.plan hand)
        envs)

(* The shapes where ORDER BY meets DISTINCT, LIMIT and aggregation.  Each
   runs at every width on both batch modes and must return the hand
   plan's rows in its order.  One worker picks the serial candidate and
   wider pools a parallel one, so both ends of the tail are checked. *)
let ordered_shapes =
  let asc = [ (0, Support.Asc) ] in
  let scan = Plan.Scan_table "emp" in
  let agg group_by aggs =
    Plan.Aggregate { algo = Plan.Hash_based; group_by; aggs; input = scan }
  in
  [
    ( "SELECT ten, COUNT(*) FROM emp GROUP BY ten ORDER BY ten LIMIT 3",
      Plan.Limit
        {
          count = 3;
          input = Plan.Sort { key = asc; input = agg [ ten ] [ Agg.Count ] };
        } );
    ( "SELECT unique1 FROM emp WHERE (unique1 < 500) ORDER BY unique1 LIMIT 5",
      Plan.Limit
        {
          count = 5;
          input =
            Plan.Sort
              {
                key = asc;
                input =
                  Plan.Project_exprs
                    { exprs = [ Expr.Col u1 ]; input = filt u1 500 scan };
              };
        } );
    ( "SELECT DISTINCT two FROM emp GROUP BY two, four ORDER BY two",
      Plan.Sort
        {
          key = asc;
          input =
            Plan.Distinct
              {
                algo = Plan.Hash_based;
                on = [ 0 ];
                input =
                  Plan.Project_exprs
                    { exprs = [ Expr.Col 0 ]; input = agg [ two; four ] [] };
              };
        } );
    ( "SELECT DISTINCT COUNT(*) FROM emp ORDER BY 1",
      Plan.Sort { key = asc; input = agg [] [ Agg.Count ] } );
  ]

let test_optimizer_ordered_shapes () =
  List.iter
    (fun (sql, hand) ->
      List.iter
        (fun env ->
          List.iter
            (fun workers ->
              let c = Sql.plan ~workers env sql in
              let what = Printf.sprintf "%s, %d workers" sql workers in
              check Alcotest.bool (what ^ ": parallel iff workers > 1")
                (workers > 1)
                (exchanges c.plan <> []);
              check Alcotest.bool (what ^ ": the hand plan's rows in order")
                true
                (Runner.run env c.plan = Runner.run env hand))
            [ 1; 2; parts ])
        [ Lazy.force env_plain; Lazy.force env_batched ])
    ordered_shapes

let suite =
  [
    Alcotest.test_case "parser round trip" `Quick test_round_trip;
    Alcotest.test_case "parser normalization" `Quick test_normalization;
    Alcotest.test_case "print-parse fixpoint" `Quick test_print_parse_fixpoint;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "binder errors" `Quick test_binder_errors;
    Alcotest.test_case "AVG decomposition" `Quick test_binder_avg_decomposition;
    Alcotest.test_case "serial when alone" `Quick
      test_optimizer_serial_when_alone;
    Alcotest.test_case "closure-free generate" `Quick
      test_optimizer_closure_free_generate;
    Alcotest.test_case "sharded scan alignment" `Quick
      test_optimizer_sharded_scan_alignment;
    Alcotest.test_case "acceptance shape" `Quick test_optimizer_acceptance_shape;
    Alcotest.test_case "acceptance plan golden" `Quick
      test_optimizer_acceptance_golden;
    Alcotest.test_case "small pool priced, not vetoed" `Quick
      test_optimizer_small_pool_priced;
    Alcotest.test_case "range alignment" `Quick test_optimizer_range_alignment;
    Alcotest.test_case "explain decisions" `Quick test_explain_mentions_decisions;
    Alcotest.test_case "pruning: olap join leaves" `Quick test_pruning_olap_join;
    Alcotest.test_case "pruning: generated join leaves" `Quick
      test_pruning_generated_join;
    Alcotest.test_case "pruning: SELECT * adds none" `Quick
      test_pruning_select_star;
    Alcotest.test_case "pruning: filter columns kept" `Quick
      test_pruning_keeps_filter_columns;
    Alcotest.test_case "session front door" `Quick test_session_front_door;
    Alcotest.test_case "ordered shapes in order" `Quick
      test_optimizer_ordered_shapes;
    Runner.qcheck ~long:false prop_optimizer_differential;
  ]
