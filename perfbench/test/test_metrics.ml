(* The benchmark's metric math: the ten-beyond percentile rule, span
   self time over overlapping children, the unattributed share of wall
   time, and failure counting. *)

module M = Perfbench_metrics.Metrics

let close = Alcotest.float 1e-9

let ramp n = M.sorted (List.init n (fun i -> float_of_int (i + 1)))

let test_percentile () =
  let a = ramp 1000 in
  Alcotest.check close "p50 of 1..1000" 500.0 (M.percentile a 0.5);
  Alcotest.check close "p99 of 1..1000" 990.0 (M.percentile a 0.99);
  Alcotest.check close "p100 is the max" 1000.0 (M.percentile a 1.0);
  Alcotest.check close "p0 is the min" 1.0 (M.percentile a 0.0);
  Alcotest.(check int) "rank of p99 over 1000 (no float round-up)" 990
    (M.rank ~n:1000 0.99)

let test_ten_beyond () =
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10
    (M.beyond ~n:1000 0.99);
  Alcotest.(check (option close))
    "p99 reportable at 1000 samples" (Some 990.0)
    (M.tail (ramp 1000) 0.99);
  Alcotest.(check (option close))
    "p99 withheld at 999 samples" None
    (M.tail (ramp 999) 0.99);
  Alcotest.(check (option close))
    "p90 reportable at 100 samples" (Some 90.0)
    (M.tail (ramp 100) 0.9);
  Alcotest.(check (option close))
    "p90 withheld at 99 samples" None
    (M.tail (ramp 99) 0.9)

let span ?(parent = -1) ?(layer = "") id lo hi =
  { M.id; parent; op = 0; layer; name = "s"; lo; hi }

let test_self_time () =
  let root = span 0 0.0 10.0 in
  let kids =
    [
      span ~parent:0 1 1.0 4.0;
      span ~parent:0 2 3.0 6.0 (* overlaps the first: counted once *);
      span ~parent:0 3 8.0 12.0 (* runs past the parent: clipped *);
    ]
  in
  Alcotest.check close "self = 10 - |[1,6] u [8,10]|" 3.0 (M.self_time root kids);
  Alcotest.check close "no children" 10.0 (M.self_time root []);
  Alcotest.check close "child outside the parent covers nothing" 10.0
    (M.self_time root [ span ~parent:0 4 11.0 12.0 ]);
  Alcotest.check close "nested children inside one another" 6.0
    (M.self_time root [ span ~parent:0 5 2.0 6.0; span ~parent:0 6 3.0 4.0 ])

let test_unattributed () =
  (* root 0..10 (harness): core covers 0..6, harness glue 6..8 of which
     sql covers 6..7; 8..10 is covered by nothing *)
  let spans =
    [
      span 0 0.0 10.0;
      span ~parent:0 ~layer:"core" 1 0.0 6.0;
      span ~parent:0 2 6.0 8.0;
      span ~parent:2 ~layer:"sql" 3 6.0 7.0;
    ]
  in
  Alcotest.check close "root gap 2 + glue self 1 over 10" 0.3
    (M.unattributed_frac spans);
  Alcotest.(check (list (pair string close)))
    "layer self times" [ ("core", 6.0); ("sql", 1.0) ] (M.layer_self_times spans);
  (* two operations: the second fully covered *)
  let spans =
    spans @ [ span 10 20.0 30.0; span ~parent:10 ~layer:"core" 11 20.0 30.0 ]
  in
  Alcotest.check close "3 of 20 seconds unattributed" 0.15
    (M.unattributed_frac spans);
  (* overlapping children of a layered span: overlap counts once *)
  let spans =
    [
      span 0 0.0 10.0;
      span ~parent:0 ~layer:"core" 1 0.0 10.0;
      span ~parent:1 ~layer:"net" 2 1.0 5.0;
      span ~parent:1 ~layer:"net" 3 2.0 6.0;
    ]
  in
  Alcotest.check close "fully covered" 0.0 (M.unattributed_frac spans);
  Alcotest.(check (list (pair string close)))
    "core keeps what net does not cover" [ ("core", 5.0); ("net", 8.0) ]
    (M.layer_self_times spans);
  Alcotest.check close "no spans" 0.0 (M.unattributed_frac [])

let test_failed_frac () =
  let t = M.tally () in
  Alcotest.check close "nothing attempted" 0.0 (M.failed_frac t);
  List.iter (M.record t) [ M.Ok; M.Ok; M.Error; M.Ok; M.Wrong; M.Ok ];
  List.iter (M.record t) [ M.Ok; M.Ok; M.Ok; M.Error ];
  Alcotest.(check int) "attempted" 10 (M.attempted t);
  Alcotest.(check int) "errors and wrong answers both fail" 3 (M.failed t);
  Alcotest.check close "failed_frac" 0.3 (M.failed_frac t)

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond a tail" `Quick test_ten_beyond;
          Alcotest.test_case "self time over overlapping children" `Quick
            test_self_time;
          Alcotest.test_case "unattributed share and layer self times" `Quick
            test_unattributed;
          Alcotest.test_case "failed_frac counting" `Quick test_failed_frac;
        ] );
    ]
