(* Wisconsin workload generator tests. *)

module W = Volcano_wisconsin.Wisconsin
module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile

let check = Alcotest.check

let test_determinism () =
  let g1 = W.generator ~seed:9L ~n:100 () in
  let g2 = W.generator ~seed:9L ~n:100 () in
  for i = 0 to 99 do
    check Alcotest.bool "same tuple" true (Tuple.equal (g1 i) (g2 i))
  done

(* Every row is pinned, byte for byte: a load, a route and a placement
   follow from them. *)
let test_golden_rows () =
  let g = W.generator ~seed:42L ~n:1000 () in
  let rows = Buffer.create 150_000 in
  for i = 0 to 999 do
    Buffer.add_string rows (Volcano_tuple.Serial.encode_string (g i))
  done;
  check Alcotest.int "bytes" 146_000 (Buffer.length rows);
  check Alcotest.string "digest" "366bd0b84ab6bf7f6c2e70bac2aa9657"
    (Digest.to_hex (Digest.string (Buffer.contents rows)))

let test_unique1_is_permutation () =
  let n = 1000 in
  let g = W.generator ~n () in
  let u1 = W.column "unique1" in
  let seen = Array.make n false in
  for i = 0 to n - 1 do
    let v = Tuple.int_exn (g i) u1 in
    check Alcotest.bool "range" true (v >= 0 && v < n);
    check Alcotest.bool "unseen" false seen.(v);
    seen.(v) <- true
  done

let test_derived_columns () =
  let g = W.generator ~n:100 () in
  let u1 = W.column "unique1" in
  for i = 0 to 99 do
    let t = g i in
    let v = Tuple.int_exn t u1 in
    check Alcotest.int "two" (v mod 2) (Tuple.int_exn t (W.column "two"));
    check Alcotest.int "ten" (v mod 10) (Tuple.int_exn t (W.column "ten"));
    check Alcotest.int "unique2" i (Tuple.int_exn t (W.column "unique2"));
    check Alcotest.int "one_percent" (v mod 100)
      (Tuple.int_exn t (W.column "one_percent"))
  done

let test_selectivity () =
  (* "two = 0" selects exactly half. *)
  let e = Env.create () in
  let open Volcano_tuple.Expr.Infix in
  let pred =
    Volcano_tuple.Expr.col (W.column "two") = Volcano_tuple.Expr.int 0
  in
  let plan = Plan.Filter { pred; mode = `Compiled; input = W.plan ~n:2000 () } in
  check Alcotest.int "50% selectivity" 1000 (Runner.count e plan)

let test_load_and_partitions () =
  let e = Env.create ~frames:512 () in
  W.load ~env:e ~name:"wisc" ~n:300 ~partitions:3 ();
  check Alcotest.int "full table" 300 (Runner.count e (Plan.Scan_table "wisc"));
  List.iter
    (fun p ->
      check Alcotest.int
        (Printf.sprintf "partition %d" p)
        100
        (Runner.count e (Plan.Scan_table (Printf.sprintf "wisc#%d" p))))
    [ 0; 1; 2 ];
  (* A partitioned parallel scan sees every record exactly once. *)
  let parallel =
    Volcano_plan.Parallel.partitioned_scan ~degree:3 ~table:"wisc" ()
  in
  check Alcotest.int "partitioned scan" 300 (Runner.count e parallel)

(* One realistic query run both ways: a selection and grouped aggregate
   over the Wisconsin relation, parallelized GAMMA-style (partitioned
   producers, hash repartitioning on the grouping key), against its
   serial twin obtained by stripping every exchange out of the very same
   plan tree. *)
let test_serial_parallel_differential () =
  let e = Env.create ~frames:256 () in
  let open Volcano_tuple.Expr.Infix in
  let pred =
    Volcano_tuple.Expr.col (W.column "two") = Volcano_tuple.Expr.int 0
  in
  let filtered =
    Plan.Filter { pred; mode = `Compiled; input = W.plan_slice ~n:3000 () }
  in
  let parallel =
    Volcano_plan.Parallel.partitioned_aggregate ~degree:3 ~packet_size:7
      ~algo:Plan.Hash_based
      ~group_by:[ W.column "ten" ]
      ~aggs:
        [
          Volcano_ops.Aggregate.Count;
          Volcano_ops.Aggregate.Sum
            (Volcano_tuple.Expr.Col (W.column "unique1"));
        ]
      filtered
  in
  let serial = Test_random_plans.strip parallel in
  let sorted plan = List.sort Tuple.compare (Runner.run e plan) in
  let serial_rows = sorted serial in
  (* "two = 0" keeps even unique1 values; they hit only the even "ten"
     groups. *)
  check Alcotest.int "five groups" 5 (List.length serial_rows);
  check Alcotest.bool "serial = parallel" true
    (List.equal Tuple.equal serial_rows (sorted parallel))

let test_skewed_generator () =
  let g = W.skewed_generator ~n:5000 ~key_space:100 ~theta:1.2 () in
  let counts = Hashtbl.create 100 in
  for i = 0 to 4999 do
    let k = Tuple.int_exn (g i) 0 in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let hottest = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  check Alcotest.bool "skew visible" true (hottest > 5000 / 20)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "golden rows" `Quick test_golden_rows;
    Alcotest.test_case "unique1 is a permutation" `Quick
      test_unique1_is_permutation;
    Alcotest.test_case "derived columns" `Quick test_derived_columns;
    Alcotest.test_case "selectivity" `Quick test_selectivity;
    Alcotest.test_case "load with partitions" `Quick test_load_and_partitions;
    Alcotest.test_case "serial = parallel differential" `Quick
      test_serial_parallel_differential;
    Alcotest.test_case "skewed generator" `Quick test_skewed_generator;
  ]
