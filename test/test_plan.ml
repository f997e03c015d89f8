(* Plan-level tests.  The central property: inserting exchange operators —
   any variety, anywhere — never changes a query's result multiset.  That is
   precisely the paper's encapsulation claim. *)

module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Parallel = Volcano_plan.Parallel
module Exchange = Volcano.Exchange
module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Expr = Volcano_tuple.Expr
module Support = Volcano_tuple.Support

let check = Alcotest.check

let env () = Env.create ~frames:128 ~page_size:512 ()

let sorted_result env plan = List.sort Tuple.compare (Runner.run env plan)

let check_same_result name env serial parallelized =
  let a = sorted_result env serial and b = sorted_result env parallelized in
  check Alcotest.int (name ^ " cardinality") (List.length a) (List.length b);
  List.iter2
    (fun x y -> check Alcotest.bool (name ^ " tuple") true (Tuple.equal x y))
    a b

let gen_tuple i = Tuple.of_ints [ i; i mod 10; i mod 7 ]
let base n = Plan.Generate { arity = 3; count = n; gen = gen_tuple }
let base_slice n = Plan.Generate_slice { arity = 3; count = n; gen = gen_tuple }

let test_scan_table () =
  let e = env () in
  let file =
    Env.create_table e ~name:"t"
      ~schema:(Volcano_tuple.Schema.of_names [ ("a", Value.Tint) ])
  in
  for i = 0 to 19 do
    ignore
      (Volcano_storage.Heap_file.insert file
         (Bytes.to_string (Volcano_tuple.Serial.encode (Tuple.of_ints [ i ]))))
  done;
  check Alcotest.int "scan" 20 (Runner.count e (Plan.Scan_table "t"));
  check Alcotest.int "arity" 1 (Plan.arity e (Plan.Scan_table "t"))

let test_filter_modes_agree () =
  let e = env () in
  let open Expr.Infix in
  let pred = Expr.col 1 = Expr.int 3 in
  let compiled =
    Plan.Filter { pred; mode = `Compiled; input = base 1000 }
  in
  let interpreted =
    Plan.Filter { pred; mode = `Interpreted; input = base 1000 }
  in
  check_same_result "compiled = interpreted" e compiled interpreted;
  check Alcotest.int "selectivity" 100 (Runner.count e compiled)

let test_sort_plan () =
  let e = env () in
  let plan =
    Plan.Sort { key = [ (0, Support.Desc) ]; input = base 100 }
  in
  let result = Runner.run e plan in
  check Alcotest.int "first is max" 99 (Tuple.int_exn (List.hd result) 0)

let test_limit_early_close () =
  let e = env () in
  (* Limit above an exchange exercises early close through a plan. *)
  let plan =
    Plan.Limit
      {
        count = 5;
        input =
          Plan.Exchange
            { cfg = Exchange.config ~degree:2 (); input = base_slice 1_000_000 };
      }
  in
  check Alcotest.int "limit" 5 (Runner.count e plan)

(* A producer closes its subtree as soon as its stream is sent, with no
   word from the consumer: a record in a packet is a decoded copy, not a
   view of a buffer frame.  So once the producers are gone, while the
   consumer still holds every row, no frame is fixed, and the rows
   survive the frames being reused for another table. *)
let test_producers_close_before_consumer () =
  let sched = Volcano_sched.Sched.create ~workers:2 () in
  Fun.protect ~finally:(fun () -> Volcano_sched.Sched.shutdown sched)
  @@ fun () ->
  let e = Env.create ~frames:8 ~page_size:512 ~sched () in
  let row i = Tuple.make [ Value.Int i; Value.Str (Printf.sprintf "row-%04d" i) ] in
  let fill name =
    let file =
      Env.create_table e ~name
        ~schema:
          (Volcano_tuple.Schema.of_names [ ("a", Value.Tint); ("s", Value.Tstr) ])
    in
    for i = 0 to 599 do
      ignore
        (Volcano_storage.Heap_file.insert file
           (Bytes.to_string (Volcano_tuple.Serial.encode (row i))))
    done
  in
  fill "held";
  fill "other";
  let buffer = Env.buffer e in
  let it =
    Compile.compile e
      (Plan.Exchange
         {
           cfg = Exchange.config ~degree:2 ();
           input = Plan.Scan_table_slice "held";
         })
  in
  Volcano.Iterator.open_ it;
  let rec drain acc =
    match Volcano.Iterator.next it with
    | Some t -> drain (t :: acc)
    | None -> acc
  in
  let held = List.sort Tuple.compare (drain []) in
  let give_up = Unix.gettimeofday () +. 5.0 in
  while
    Volcano_sched.Sched.live_tasks sched > 0 && Unix.gettimeofday () < give_up
  do
    Unix.sleepf 0.001
  done;
  check Alcotest.int "producers closed before the consumer" 0
    (Volcano_sched.Sched.live_tasks sched);
  check Alcotest.int "no frame fixed while the consumer holds rows" 0
    (Volcano_storage.Bufpool.leaked_fixes buffer);
  check Alcotest.int "every frame reused" 600
    (Runner.count e (Plan.Scan_table "other"));
  check Alcotest.bool "held rows intact" true
    (List.equal Tuple.equal held (List.init 600 row));
  Volcano.Iterator.close it;
  Volcano_storage.Bufpool.assert_quiescent ~what:"producers closed" buffer

(* The encapsulation property, exercised over a zoo of plans. *)
let test_exchange_transparency () =
  let e = env () in
  let join_serial =
    Plan.Match
      {
        algo = Plan.Hash_based;
        kind = Volcano_ops.Match_op.Join;
        left_key = [ 1 ];
        right_key = [ 1 ];
        left = base 300;
        right = base 200;
      }
  in
  (* 1: vertical parallelism above the join *)
  check_same_result "pipeline above join" e join_serial
    (Parallel.pipeline join_serial);
  (* 2: bushy parallelism — both join inputs in their own processes *)
  let bushy =
    Plan.Match
      {
        algo = Plan.Hash_based;
        kind = Volcano_ops.Match_op.Join;
        left_key = [ 1 ];
        right_key = [ 1 ];
        left = Parallel.pipeline (base 300);
        right = Parallel.pipeline (base 200);
      }
  in
  check_same_result "bushy join" e join_serial bushy;
  (* 3: intra-operator parallelism with repartitioning *)
  let partitioned =
    Parallel.partitioned_match ~degree:3 ~algo:Plan.Hash_based
      ~kind:Volcano_ops.Match_op.Join ~left_key:[ 1 ] ~right_key:[ 1 ]
      ~left:(base_slice 300) ~right:(base_slice 200) ()
  in
  check_same_result "partitioned join" e join_serial partitioned

let test_sort_based_partitioned_match () =
  let e = env () in
  let serial =
    Plan.Match
      {
        algo = Plan.Sort_based;
        kind = Volcano_ops.Match_op.Semi;
        left_key = [ 2 ];
        right_key = [ 2 ];
        left = base 150;
        right = base 50;
      }
  in
  let parallel =
    Parallel.partitioned_match ~degree:2 ~algo:Plan.Sort_based
      ~kind:Volcano_ops.Match_op.Semi ~left_key:[ 2 ] ~right_key:[ 2 ]
      ~left:(base_slice 150) ~right:(base_slice 50) ()
  in
  check_same_result "sort-based semi" e serial parallel

let test_partitioned_aggregate () =
  let e = env () in
  let aggs = [ Volcano_ops.Aggregate.Count; Volcano_ops.Aggregate.Sum (Expr.col 0) ] in
  let serial =
    Plan.Aggregate { algo = Plan.Hash_based; group_by = [ 1 ]; aggs; input = base 1000 }
  in
  let parallel =
    Parallel.partitioned_aggregate ~degree:4 ~algo:Plan.Hash_based
      ~group_by:[ 1 ] ~aggs (base_slice 1000)
  in
  check_same_result "partitioned aggregate" e serial parallel

let test_parallel_sort_plan () =
  let e = env () in
  let key = [ (0, Support.Asc) ] in
  let serial = Plan.Sort { key; input = base 500 } in
  let parallel = Parallel.parallel_sort ~degree:3 ~key (base_slice 500) in
  (* Parallel sort must preserve global order, not just the multiset. *)
  let a = Runner.run e serial and b = Runner.run e parallel in
  check Alcotest.int "cardinality" (List.length a) (List.length b);
  List.iter2
    (fun x y -> check Alcotest.bool "ordered equal" true (Tuple.equal x y))
    a b

let test_broadcast_join_plan () =
  let e = env () in
  let serial =
    Plan.Match
      {
        algo = Plan.Hash_based;
        kind = Volcano_ops.Match_op.Join;
        left_key = [ 1 ];
        right_key = [ 1 ];
        left = base 200;
        right = base 40;
      }
  in
  let parallel =
    Parallel.broadcast_join ~degree:3 ~kind:Volcano_ops.Match_op.Join
      ~left_key:[ 1 ] ~right_key:[ 1 ]
      ~left:(base_slice 200)
      ~right:(base_slice 40) ()
  in
  check_same_result "broadcast join" e serial parallel

let test_interchange_plan () =
  let e = env () in
  (* Distinct keeps an arbitrary representative per group, so compare the
     group keys only. *)
  let keys_only input = Plan.Project_cols { cols = [ 1 ]; input } in
  let serial =
    keys_only (Plan.Distinct { algo = Plan.Hash_based; on = [ 1 ]; input = base 400 })
  in
  (* Inside a 3-wide group: slices repartitioned by hash on column 1 via the
     no-fork interchange, then locally deduplicated. *)
  let parallel =
    Plan.Exchange
      {
        cfg = Exchange.config ~degree:3 ();
        input =
          keys_only
            (Plan.Distinct
               {
                 algo = Plan.Hash_based;
                 on = [ 1 ];
                 input =
                   Plan.Interchange
                     {
                       cfg =
                         Exchange.config ~degree:3
                           ~partition:(Exchange.Hash_on [ 1 ]) ();
                       input = base_slice 400;
                     };
               });
      }
  in
  check_same_result "interchange distinct" e serial parallel

let test_division_plan () =
  let e = env () in
  let pairs =
    List.concat_map
      (fun s -> List.filter_map (fun c -> if (s + c) mod 4 <> 0 then Some (s, c) else None)
          [ 0; 1; 2 ])
      (List.init 20 Fun.id)
  in
  let dividend =
    Plan.Scan_list
      { arity = 2; tuples = List.map (fun (s, c) -> Tuple.of_ints [ s; c ]) pairs }
  in
  let divisor =
    Plan.Scan_list { arity = 1; tuples = List.map (fun c -> Tuple.of_ints [ c ]) [ 0; 1; 2 ] }
  in
  let results =
    List.map
      (fun algo ->
        sorted_result e
          (Plan.Division
             { algo; quotient = [ 0 ]; divisor_attrs = [ 1 ]; divisor_key = [ 0 ];
               dividend; divisor }))
      [ `Hash; `Count; `Sort ]
  in
  match results with
  | [ a; b; c ] ->
      check Alcotest.int "hash=count" (List.length a) (List.length b);
      check Alcotest.int "hash=sort" (List.length a) (List.length c);
      List.iter2 (fun x y -> check Alcotest.bool "tuple" true (Tuple.equal x y)) a b;
      List.iter2 (fun x y -> check Alcotest.bool "tuple" true (Tuple.equal x y)) a c
  | _ -> assert false

let test_explain () =
  let e = env () in
  let plan =
    Parallel.partitioned_match ~degree:2 ~algo:Plan.Hash_based
      ~kind:Volcano_ops.Match_op.Join ~left_key:[ 0 ] ~right_key:[ 0 ]
      ~left:(base_slice 10) ~right:(base_slice 10) ()
  in
  let text = Plan.explain e plan in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec at i = i + n <= h && (String.sub text i n = needle || at (i + 1)) in
    at 0
  in
  check Alcotest.bool "mentions exchange" true (contains "exchange");
  check Alcotest.bool "mentions join" true (contains "hash-join");
  check Alcotest.bool "mentions partitioning" true (contains "hash[0]")

let test_deep_pipeline () =
  let e = env () in
  (* Five chained exchange boundaries — a 6-process vertical pipeline. *)
  let rec chain n plan =
    if n = 0 then plan else chain (n - 1) (Parallel.pipeline plan)
  in
  let plan = chain 5 (base 500) in
  check Alcotest.int "deep pipeline" 500 (Runner.count e plan)

(* --- read sets: [Plan.narrow] ------------------------------------------ *)

(* Six columns, [i; i+1; ...; i+5]: only the edge above it matters here,
   and nothing in this suite runs a remote plan (the distributed suites
   do, over real workers). *)
let wide =
  Plan.Generate_slice
    { arity = 6; count = 10; gen = (fun i -> Tuple.of_ints (List.init 6 (( + ) i))) }

let remote_edge ?(partition = Exchange.Round_robin) input =
  Plan.Remote
    { cfg = Exchange.config ~degree:2 ~partition (); workers = 2; task = "t"; input }

let shape plan = Format.asprintf "%a" Plan.pp plan

let agg_count_sum ~by ~sum input =
  Plan.Aggregate
    {
      algo = Plan.Hash_based;
      group_by = [ by ];
      aggs = [ Volcano_ops.Aggregate.Count; Volcano_ops.Aggregate.Sum (Expr.Col sum) ];
      input;
    }

let narrowed_as name e plan expected =
  let n = Plan.narrow e plan in
  check Alcotest.string name expected (shape n);
  check Alcotest.bool (name ^ ": narrowing again changes nothing") true
    (Plan.narrow e n == n);
  n

let test_narrow_read_sets () =
  let e = env () in
  (* an edge read whole by the root is left exactly as written *)
  let root = remote_edge wide in
  check Alcotest.bool "root edge untouched" true (Plan.narrow e root == root);
  (* a literal leaf is read whole: with no edge and no other leaf below,
     nothing changes *)
  let literal =
    Plan.Scan_list { arity = 6; tuples = List.init 4 (fun i -> Tuple.of_ints (List.init 6 (( + ) i))) }
  in
  let local = agg_count_sum ~by:4 ~sum:0 (Plan.Filter { pred = Expr.True; mode = `Compiled; input = literal }) in
  check Alcotest.bool "literal leaf, no change" true (Plan.narrow e local == local);
  (* a generated leaf projects what is read, like a table leaf *)
  ignore
    (narrowed_as "a generated leaf projects what is read" e
       (agg_count_sum ~by:4 ~sum:0 (Plan.Filter { pred = Expr.True; mode = `Compiled; input = wide }))
       "hash-aggregate by [1] (2 aggs)\n\
       \  filter (compiled) true\n\
       \    project [0,4]\n\
       \      generate-slice (10 tuples)\n");
  (* the remote_ship shape: group by column 4, sum column 0, routed on 4 *)
  let n =
    narrowed_as "aggregate over a routed edge" e
      (Plan.Exchange
         {
           cfg = Exchange.config ~degree:2 ();
           input =
             agg_count_sum ~by:4 ~sum:0
               (remote_edge ~partition:(Exchange.Hash_on [ 4 ]) wide);
         })
      "exchange (degree=2 packet=83 flow=4 partition=round-robin)\n\
      \  hash-aggregate by [1] (2 aggs)\n\
      \    remote-exchange workers=2 task=\"t\" (degree=2 packet=83 flow=4 \
       partition=hash[1])\n\
      \      project [0,4]\n\
      \        generate-slice (10 tuples)\n"
  in
  (match n with
  | Plan.Exchange { input = Plan.Aggregate { aggs; _ }; _ } ->
      check Alcotest.bool "the sum reads the narrow column" true
        (aggs = [ Volcano_ops.Aggregate.Count; Volcano_ops.Aggregate.Sum (Expr.Col 0) ])
  | _ -> Alcotest.fail "shape");
  (* a filter, a sort and a range-partitioned exchange between the
     consumer and the edge: each adds its columns and is remapped *)
  ignore
    (narrowed_as "filter, sort and exchange above the edge" e
       (Plan.Aggregate
          {
            algo = Plan.Hash_based;
            group_by = [ 5 ];
            aggs = [ Volcano_ops.Aggregate.Count ];
            input =
              Plan.Filter
                {
                  pred = Expr.Cmp (Expr.Lt, Expr.Col 2, Expr.Const (Value.Int 3));
                  mode = `Compiled;
                  input =
                    Plan.Sort
                      {
                        key = [ (3, Support.Asc) ];
                        input =
                          Plan.Exchange
                            {
                              cfg =
                                Exchange.config ~degree:2
                                  ~partition:(Exchange.Range_on (1, [| Value.Int 5 |]))
                                  ();
                              input = remote_edge wide;
                            };
                      };
                };
          })
       "hash-aggregate by [3] (1 aggs)\n\
       \  filter (compiled) $1 < 3\n\
       \    sort [2]\n\
       \      exchange (degree=2 packet=83 flow=4 partition=range[0])\n\
       \        remote-exchange workers=2 task=\"t\" (degree=2 packet=83 \
        flow=4 partition=round-robin)\n\
       \          project [1,2,3,5]\n\
       \            generate-slice (10 tuples)\n");
  (* a projection already at the top of the edge's input composes *)
  ignore
    (narrowed_as "composes with the site's projection" e
       (agg_count_sum ~by:0 ~sum:0 (remote_edge (Plan.Project_cols { cols = [ 5; 3; 1 ]; input = wide })))
       "hash-aggregate by [0] (2 aggs)\n\
       \  remote-exchange workers=2 task=\"t\" (degree=2 packet=83 flow=4 \
        partition=round-robin)\n\
       \    project [5]\n\
       \      generate-slice (10 tuples)\n");
  (* counting reads no column at all *)
  ignore
    (narrowed_as "a count ships zero columns" e
       (Plan.Aggregate
          { algo = Plan.Hash_based; group_by = []; aggs = [ Volcano_ops.Aggregate.Count ]; input = remote_edge wide })
       "hash-aggregate by [] (1 aggs)\n\
       \  remote-exchange workers=2 task=\"t\" (degree=2 packet=83 flow=4 \
        partition=round-robin)\n\
       \    project []\n\
       \      generate-slice (10 tuples)\n");
  (* a join narrows the edges below it: each side ships the columns read
     above that fall in it plus its key, and the key and the projection
     above are remapped; the generated side projects its part *)
  let join kind =
    Plan.Project_cols
      {
        cols = [ 0; (match kind with Volcano_ops.Match_op.Join -> 7 | _ -> 2) ];
        input =
          Plan.Match
            {
              algo = Plan.Hash_based;
              kind;
              left_key = [ 1 ];
              right_key = [ 0 ];
              left = remote_edge wide;
              right = base 5;
            };
      }
  in
  ignore
    (narrowed_as "a join narrows the edges below it" e
       (join Volcano_ops.Match_op.Join)
       "project [0,3]\n\
       \  hash-join on [1]=[0]\n\
       \    remote-exchange workers=2 task=\"t\" (degree=2 packet=83 flow=4 \
        partition=round-robin)\n\
       \      project [0,1]\n\
       \        generate-slice (10 tuples)\n\
       \    project [0,1]\n\
       \      generate (5 tuples)\n");
  (* a semi-join reads its inputs whole *)
  let semi = join Volcano_ops.Match_op.Semi in
  check Alcotest.bool "a semi-join reads its inputs whole" true
    (Plan.narrow e semi == semi);
  (* a custom partition closure may read any column: nothing narrows *)
  let custom =
    agg_count_sum ~by:4 ~sum:0
      (Plan.Exchange
         {
           cfg =
             Exchange.config ~degree:2
               ~partition:
                 (Exchange.Custom
                    (fun () -> Support.Partition.hash ~consumers:2 ~on:[ 0 ] ()))
               ();
           input = remote_edge wide;
         })
  in
  check Alcotest.bool "custom partitioning reads everything" true
    (Plan.narrow e custom == custom)

(* [map_children] rebuilds a node of every constructor around new inputs
   that [children] then returns, in order; a leaf comes back as it is. *)
let test_map_children () =
  let leaf i = Plan.Generate_range { start = i; count = 1 } in
  let cfg = Exchange.config ~degree:2 () in
  let one = leaf 0 and two = leaf 1 in
  let nodes =
    [
      Plan.Scan_table "t";
      Plan.Scan_table_slice "t";
      Plan.Scan_index { index = "i"; lo = Plan.Ix_unbounded; hi = Plan.Ix_unbounded };
      Plan.Scan_list { arity = 1; tuples = [] };
      Plan.Generate { arity = 1; count = 1; gen = (fun i -> Tuple.of_ints [ i ]) };
      Plan.Generate_slice
        { arity = 1; count = 1; gen = (fun i -> Tuple.of_ints [ i ]) };
      one;
      Plan.Filter { pred = Expr.True; mode = `Compiled; input = one };
      Plan.Project_cols { cols = [ 0 ]; input = one };
      Plan.Project_exprs { exprs = [ Expr.col 0 ]; input = one };
      Plan.Sort { key = [ (0, Support.Asc) ]; input = one };
      Plan.Match
        {
          algo = Plan.Hash_based;
          kind = Volcano_ops.Match_op.Join;
          left_key = [ 0 ];
          right_key = [ 0 ];
          left = one;
          right = two;
        };
      Plan.Cross { left = one; right = two };
      Plan.Theta_join { pred = Expr.True; left = one; right = two };
      Plan.Aggregate { algo = Plan.Hash_based; group_by = [ 0 ]; aggs = []; input = one };
      Plan.Distinct { algo = Plan.Hash_based; on = [ 0 ]; input = one };
      Plan.Division
        {
          algo = `Hash;
          quotient = [ 0 ];
          divisor_attrs = [ 0 ];
          divisor_key = [ 0 ];
          dividend = one;
          divisor = two;
        };
      Plan.Limit { count = 1; input = one };
      Plan.Union_all { left = one; right = two };
      Plan.Choose { decide = (fun () -> 0); alternatives = [ one; two; one ] };
      Plan.Exchange { cfg; input = one };
      Plan.Exchange_merge { cfg; key = [ (0, Support.Asc) ]; input = one };
      Plan.Interchange { cfg; input = one };
      Plan.Remote { cfg; workers = 2; task = "t"; input = one };
    ]
  in
  List.iter
    (fun node ->
      let what = Plan.label node in
      let wrapped = ref [] in
      let wrap c =
        let w = Plan.Limit { count = 9; input = c } in
        wrapped := w :: !wrapped;
        w
      in
      let mapped = Plan.map_children wrap node in
      let expect = List.rev !wrapped in
      check Alcotest.int (what ^ ": one call per input")
        (List.length (Plan.children node))
        (List.length expect);
      check Alcotest.bool (what ^ ": children are the new inputs, in order") true
        (List.equal ( == ) (Plan.children mapped) expect);
      check Alcotest.bool (what ^ ": each wraps the old input") true
        (List.equal
           (fun w c ->
             match w with Plan.Limit { input; _ } -> input == c | _ -> false)
           expect (Plan.children node));
      if Plan.children node = [] then
        check Alcotest.bool (what ^ ": a leaf is returned as it is") true
          (mapped == node))
    nodes

let suite =
  [
    Alcotest.test_case "scan table" `Quick test_scan_table;
    Alcotest.test_case "filter modes agree" `Quick test_filter_modes_agree;
    Alcotest.test_case "sort plan" `Quick test_sort_plan;
    Alcotest.test_case "limit closes exchange early" `Quick test_limit_early_close;
    Alcotest.test_case "producers close before the consumer" `Quick
      test_producers_close_before_consumer;
    Alcotest.test_case "exchange transparency (join)" `Quick
      test_exchange_transparency;
    Alcotest.test_case "sort-based partitioned match" `Quick
      test_sort_based_partitioned_match;
    Alcotest.test_case "partitioned aggregate" `Quick test_partitioned_aggregate;
    Alcotest.test_case "parallel sort preserves order" `Quick
      test_parallel_sort_plan;
    Alcotest.test_case "broadcast join" `Quick test_broadcast_join_plan;
    Alcotest.test_case "interchange plan" `Quick test_interchange_plan;
    Alcotest.test_case "division plans agree" `Quick test_division_plan;
    Alcotest.test_case "explain renders" `Quick test_explain;
    Alcotest.test_case "deep pipeline" `Quick test_deep_pipeline;
    Alcotest.test_case "remote edges ship only what is read" `Quick
      test_narrow_read_sets;
    Alcotest.test_case "map_children inverts children" `Quick test_map_children;
  ]
