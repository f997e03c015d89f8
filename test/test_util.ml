(* Unit and property tests for the utility modules. *)

module Rng = Volcano_util.Rng
module Zipf = Volcano_util.Zipf
module Binheap = Volcano_util.Binheap
module Stats = Volcano_util.Stats

let check = Alcotest.check

let test_rng_determinism () =
  let a = Rng.create 17L and b = Rng.create 17L in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    check Alcotest.bool "in range" true (x >= 0 && x < 7)
  done

(* The splitmix64 stream is pinned: every seeded workload (Wisconsin's
   permutation, hence every placement and route) follows from it. *)
let test_rng_golden () =
  let pin seed raw ints perm =
    let r = Rng.create seed in
    List.iter (fun v -> check Alcotest.int64 "raw" v (Rng.int64 r)) raw;
    let r = Rng.create seed in
    List.iter (fun v -> check Alcotest.int "int 1000" v (Rng.int r 1000)) ints;
    check (Alcotest.array Alcotest.int) "permutation" perm
      (Rng.permutation (Rng.create seed) 10)
  in
  pin 42L
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
      6349198060258255764L ]
    [ 853; 72; 964; 941 ]
    [| 6; 1; 5; 9; 0; 2; 7; 8; 4; 3 |];
  pin 7L
    [ 7191089600892374487L; 309689372594955804L; -1830642326893942270L;
      -7693578145408079413L ]
    [ 621; 951; 336; 50 ]
    [| 5; 8; 3; 4; 9; 2; 7; 0; 6; 1 |]

(* A step inlined into [int] stores the state without boxing it. *)
let test_rng_allocation () =
  let rng = Rng.create 9L in
  let draws = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    ignore (Sys.opaque_identity (Rng.int rng 1000))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int draws in
  if words >= 0.01 then Alcotest.failf "%.2f minor words per Rng.int" words

let test_permutation () =
  let rng = Rng.create 5L in
  let p = Rng.permutation rng 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check
    (Alcotest.array Alcotest.int)
    "is a permutation"
    (Array.init 100 (fun i -> i))
    sorted

let test_zipf_skew () =
  let rng = Rng.create 11L in
  let z = Zipf.create ~n:100 ~theta:1.0 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let x = Zipf.draw z rng in
    counts.(x) <- counts.(x) + 1
  done;
  (* Rank 0 must dominate rank 50 heavily under theta = 1. *)
  check Alcotest.bool "skewed" true (counts.(0) > counts.(50) * 5)

let test_zipf_uniform () =
  let rng = Rng.create 11L in
  let z = Zipf.create ~n:10 ~theta:0.0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let x = Zipf.draw z rng in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c -> check Alcotest.bool "roughly uniform" true (c > 700 && c < 1300))
    counts

let test_binheap_sorts () =
  let heap = Binheap.of_list ~cmp:compare [ 5; 3; 8; 1; 9; 2; 7 ] in
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ]
    (Binheap.to_sorted_list heap)

let test_binheap_empty () =
  let heap = Binheap.create ~cmp:compare in
  check Alcotest.bool "empty" true (Binheap.is_empty heap);
  check (Alcotest.option Alcotest.int) "pop empty" None (Binheap.pop heap);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Binheap.pop_exn: empty heap")
    (fun () -> ignore (Binheap.pop_exn heap))

let prop_binheap =
  QCheck.Test.make ~name:"binheap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let heap = Binheap.of_list ~cmp:compare xs in
      Binheap.to_sorted_list heap = List.sort compare xs)

let test_stats () =
  let s = Stats.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-6) "stddev" 2.13808993 (Stats.stddev s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.max s)

let test_percentile_exact () =
  (* 1..100 fits the default reservoir, so percentiles are exact (linear
     interpolation between closest ranks). *)
  let s = Stats.of_list (List.init 100 (fun i -> float_of_int (i + 1))) in
  check (Alcotest.float 1e-9) "p0 = min" 1.0 (Stats.percentile s 0.0);
  check (Alcotest.float 1e-9) "p100 = max" 100.0 (Stats.percentile s 1.0);
  check (Alcotest.float 1e-9) "median" 50.5 (Stats.percentile s 0.5);
  check (Alcotest.float 1e-6) "p90" 90.1 (Stats.percentile s 0.9);
  let single = Stats.of_list [ 42.0 ] in
  check (Alcotest.float 1e-9) "singleton" 42.0 (Stats.percentile single 0.7)

let test_percentile_edge () =
  let empty = Stats.create () in
  check (Alcotest.float 1e-9) "empty" 0.0 (Stats.percentile empty 0.5);
  let s = Stats.of_list [ 1.0; 2.0 ] in
  Alcotest.check_raises "p > 1"
    (Invalid_argument "Stats.percentile: p must be in [0, 1]") (fun () ->
      ignore (Stats.percentile s 1.5));
  Alcotest.check_raises "p < 0"
    (Invalid_argument "Stats.percentile: p must be in [0, 1]") (fun () ->
      ignore (Stats.percentile s (-0.1)))

let test_percentile_reservoir () =
  (* 10,000 values through a 64-slot reservoir: estimates are approximate
     but deterministic (fixed rng seed) and order-correct. *)
  let mk () =
    Stats.of_list ~reservoir:64 (List.init 10_000 (fun i -> float_of_int i))
  in
  let a = mk () and b = mk () in
  check (Alcotest.float 1e-9) "deterministic" (Stats.percentile a 0.5)
    (Stats.percentile b 0.5);
  let p10 = Stats.percentile a 0.1
  and p50 = Stats.percentile a 0.5
  and p90 = Stats.percentile a 0.9 in
  check Alcotest.bool "ordered" true (p10 <= p50 && p50 <= p90);
  check Alcotest.bool "median in the middle" true
    (p50 > 2000.0 && p50 < 8000.0)

let test_cov () =
  let s = Stats.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check (Alcotest.float 1e-6) "cov" (2.13808993 /. 5.0)
    (Stats.coefficient_of_variation s);
  (* Zero mean (cancelling values or empty series) reports 0, not nan. *)
  let zero = Stats.of_list [ -1.0; 1.0 ] in
  check (Alcotest.float 1e-9) "zero mean" 0.0
    (Stats.coefficient_of_variation zero);
  check (Alcotest.float 1e-9) "empty" 0.0
    (Stats.coefficient_of_variation (Stats.create ()));
  (* Negative mean uses the magnitude. *)
  let neg = Stats.of_list [ -2.0; -4.0; -6.0 ] in
  check Alcotest.bool "negative mean positive cov" true
    (Stats.coefficient_of_variation neg > 0.0)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng golden stream" `Quick test_rng_golden;
    Alcotest.test_case "rng step allocates nothing" `Quick test_rng_allocation;
    Alcotest.test_case "permutation" `Quick test_permutation;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf uniform" `Quick test_zipf_uniform;
    Alcotest.test_case "binheap sorts" `Quick test_binheap_sorts;
    Alcotest.test_case "binheap empty" `Quick test_binheap_empty;
    Runner.qcheck prop_binheap;
    Alcotest.test_case "stats welford" `Quick test_stats;
    Alcotest.test_case "stats percentile exact" `Quick test_percentile_exact;
    Alcotest.test_case "stats percentile edges" `Quick test_percentile_edge;
    Alcotest.test_case "stats percentile reservoir" `Quick
      test_percentile_reservoir;
    Alcotest.test_case "stats cov" `Quick test_cov;
  ]
