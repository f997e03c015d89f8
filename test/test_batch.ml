(* The vectorized batch path, locked in differentially: every plan must
   produce bit-identical results whether its fusible chains compile to
   fused cursors (the default) or to record-at-a-time iterator trees
   ([batch_size = 0]).  The batch path is an optimization of the
   iterator protocol, not a semantic variant — exactly as exchange is an
   optimization of placement, checked by the suite next door. *)

module Batch = Volcano.Batch
module Iterator = Volcano.Iterator
module Packet = Volcano.Packet
module Exchange = Volcano.Exchange
module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Sched = Volcano_sched.Sched
module Bufpool = Volcano_storage.Bufpool
module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Expr = Volcano_tuple.Expr
module Support = Volcano_tuple.Support
module Diag = Volcano_plan.Diag
module Rng = Volcano_util.Rng
module Aggregate = Volcano_ops.Aggregate
module Match_op = Volcano_ops.Match_op

let check = Alcotest.check

let env ?batch_size () = Env.create ~frames:128 ~page_size:512 ?batch_size ()

let check_rows name expected actual =
  check Alcotest.int (name ^ ": cardinality") (List.length expected)
    (List.length actual);
  List.iter2
    (fun x y -> check Alcotest.bool (name ^ ": tuple") true (Tuple.equal x y))
    expected actual

let gen_tuple i = Tuple.of_ints [ i; i mod 10; i mod 7 ]

(* A chain exercising every fusible operator class over one leaf:
   filter, both projections, and hash distinct. *)
let fused_chain n =
  Plan.Distinct
    {
      algo = Plan.Hash_based;
      on = [ 0; 1 ];
      input =
        Plan.Project_exprs
          {
            exprs = [ Expr.Col 1; Expr.Infix.( + ) (Expr.Col 0) (Expr.Col 2) ];
            input =
              Plan.Project_cols
                {
                  cols = [ 2; 0; 1 ];
                  input =
                    Plan.Filter
                      {
                        pred =
                          Expr.Cmp
                            ( Expr.Ne,
                              Expr.Mod (Expr.Col 0, Expr.int 3),
                              Expr.int 0 );
                        mode = `Compiled;
                        input =
                          Plan.Generate { arity = 3; count = n; gen = gen_tuple };
                      };
                };
          };
    }

(* --- the adapter bridges -------------------------------------------- *)

let test_bridge_roundtrip () =
  List.iter
    (fun (batch_size, count) ->
      let name = Printf.sprintf "size %d count %d" batch_size count in
      let expected = List.init count gen_tuple in
      let bridged =
        Iterator.to_list
          (Batch.to_iterator ~batch_size
             (Batch.iterator_cursor (Iterator.generate ~count ~f:gen_tuple)))
      in
      check_rows name expected bridged)
    [ (1, 0); (1, 7); (3, 1); (7, 7); (7, 20); (64, 5); (255, 1000) ]

let test_validate () =
  check Alcotest.bool "0 disables, valid" true (Batch.validate ~batch_size:0 = []);
  check Alcotest.bool "1 valid" true (Batch.validate ~batch_size:1 = []);
  check Alcotest.bool "255 valid" true (Batch.validate ~batch_size:255 = []);
  check Alcotest.bool "256 invalid" false
    (Batch.validate ~batch_size:256 = []);
  check Alcotest.bool "-1 invalid" false (Batch.validate ~batch_size:(-1) = []);
  check Alcotest.int "default size" 64 Batch.default_size;
  (match Env.create ~batch_size:256 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Env.create must reject batch_size 256");
  let e = env () in
  check Alcotest.int "env default" Batch.default_size (Env.batch_size e);
  Env.set_batch_size e 0;
  check Alcotest.int "knob set" 0 (Env.batch_size e);
  match Env.set_batch_size e 999 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "Env.set_batch_size must reject 999"

(* --- edge cases through the compiler -------------------------------- *)

(* Empty input, batch_size 1, batch_size > input, non-divisible tails:
   for every (size, count) pair the batch path must reproduce the record
   path's output exactly, order included — fused chains are
   order-preserving, so this is the strongest possible comparison. *)
let test_edge_sizes () =
  List.iter
    (fun count ->
      let plan = fused_chain count in
      let expected = Runner.run (env ~batch_size:0 ()) plan in
      List.iter
        (fun batch_size ->
          let actual = Runner.run (env ~batch_size ()) plan in
          check_rows
            (Printf.sprintf "size %d count %d" batch_size count)
            expected actual)
        [ 1; 2; 64; 255 ])
    [ 0; 1; 2; 63; 64; 65; 129 ]

(* Reopening a compiled fused chain must replay it from scratch —
   in particular distinct's seen table must reset, or the second pass
   returns nothing. *)
let test_reopen_resets_state () =
  let e = env () in
  let iter = Compile.compile e (fused_chain 50) in
  let first = Iterator.to_list iter in
  let second = Iterator.to_list iter in
  check Alcotest.bool "first pass nonempty" true (first <> []);
  check_rows "reopen" first second

(* Early close mid-batch: drain a few records of a subtree feeding an
   exchange, close at the root, and reconcile — the scheduler joins
   every producer and the packet pools leak nothing (quiescence is the
   pool-ledger check: a leaked in-flight packet leaves a producer
   unjoined or a lane undrained).  The producer has one drive loop for
   every input, so each shape runs: a fused filter chain, a record-only
   subtree (a sort-based join does not fuse), and a fused hash-join
   chain. *)
let test_early_close_mid_batch () =
  (* The hash join probes a stored table, so a producer that never stops
     its cursor leaves a page pinned and fails the pool check. *)
  let stored_env () =
    let e = env () in
    let file =
      Env.create_table e ~name:"early_t"
        ~schema:
          (Volcano_tuple.Schema.of_names
             [ ("a", Value.Tint); ("b", Value.Tint); ("c", Value.Tint) ])
    in
    for i = 0 to 1999 do
      ignore
        (Volcano_storage.Heap_file.insert file
           (Bytes.to_string (Volcano_tuple.Serial.encode (gen_tuple i))))
    done;
    e
  in
  let slice =
    Plan.Generate_slice { arity = 3; count = 5000; gen = gen_tuple }
  in
  let filter input =
    Plan.Filter
      {
        pred = Expr.Cmp (Expr.Ge, Expr.Col 0, Expr.int 0);
        mode = `Compiled;
        input;
      }
  in
  let join algo left =
    Plan.Match
      {
        algo;
        kind = Match_op.Join;
        left_key = [ 1 ];
        right_key = [ 0 ];
        left;
        right =
          Plan.Scan_list
            {
              arity = 2;
              tuples = List.init 10 (fun k -> Tuple.of_ints [ k; k ]);
            };
      }
  in
  List.iter
    (fun (what, input) ->
      let e = stored_env () in
      let plan =
        Plan.Exchange
          { cfg = Exchange.config ~degree:2 ~packet_size:5 (); input }
      in
      let iter = Compile.compile e plan in
      Iterator.open_ iter;
      for _ = 1 to 3 do
        match Iterator.next iter with
        | Some _ -> ()
        | None -> Alcotest.failf "%s: expected a record before early close" what
      done;
      Iterator.close iter;
      Bufpool.assert_quiescent ~what:("early close, " ^ what) (Env.buffer e);
      Sched.assert_quiescent ~what:("early close, " ^ what) (Sched.default ()))
    [
      ("fused chain", filter slice);
      ("record subtree", join Plan.Sort_based slice);
      ( "fused hash join",
        join Plan.Hash_based (filter (Plan.Scan_table "early_t")) );
    ];
  (* The record bridge closed mid-stream directly, then reopened. *)
  let bridge =
    Batch.to_iterator ~batch_size:8
      (Batch.iterator_cursor (Iterator.generate ~count:100 ~f:gen_tuple))
  in
  Iterator.open_ bridge;
  (match Iterator.next bridge with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a record");
  Iterator.close bridge;
  check Alcotest.int "reopen after early close" 100 (Iterator.consume bridge)

(* --- the differential lock ------------------------------------------ *)

let sorted_run env plan = List.sort Tuple.compare (Runner.run env plan)

(* 1000 seeds of the random-plan corpus, decorated with random exchange
   placements, through both paths.  Comparison is the sorted multiset
   (parallel arrival order is nondeterministic); the serial property
   below pins exact order. *)
let prop_batch_iterator_differential =
  QCheck.Test.make ~name:"batch and record paths agree across 1000 seeds"
    ~count:1000
    QCheck.(pair int64 (int_range 1 2))
    (fun (seed, depth) ->
      let batched = env () in
      let record = env ~batch_size:0 () in
      let rng = Rng.create seed in
      let plan =
        Test_random_plans.decorate rng (Test_random_plans.random_plan rng depth)
      in
      let ok = sorted_run batched plan = sorted_run record plan in
      Bufpool.assert_quiescent ~what:"batch/iterator differential"
        (Env.buffer batched);
      Sched.assert_quiescent ~what:"batch/iterator differential"
        (Sched.default ());
      ok)

(* Undecorated (serial) random plans are deterministic, so here the two
   paths must agree record for record, in order — bit-identical. *)
let prop_batch_iterator_serial_identical =
  QCheck.Test.make ~name:"serial plans bit-identical batch vs record"
    ~count:300
    QCheck.(pair int64 (int_range 1 3))
    (fun (seed, depth) ->
      let rng = Rng.create seed in
      let plan = Test_random_plans.random_plan rng depth in
      (* Random batch size across the full legal range, so tails and
         size-1 batches are swept too. *)
      let batch_size = 1 + Rng.int rng 255 in
      Runner.run (env ~batch_size ()) plan
      = Runner.run (env ~batch_size:0 ()) plan)

(* Scheduler independence with batching on: the narrow default pool and
   a wide one ({!Runner.with_wide_pool}) agree on batched plans just as
   they do on record plans. *)
let prop_batch_narrow_wide ~name wide =
  QCheck.Test.make ~name ~count:60
    QCheck.(pair int64 (int_range 1 2))
    (fun (seed, depth) ->
      let narrow = env () in
      let wide_env = Env.create ~frames:128 ~page_size:512 ~sched:wide () in
      let rng = Rng.create seed in
      let plan =
        Test_random_plans.decorate rng (Test_random_plans.random_plan rng depth)
      in
      let ok = sorted_run narrow plan = sorted_run wide_env plan in
      let what = "batch narrow/wide" in
      Bufpool.assert_quiescent ~what (Env.buffer narrow);
      Bufpool.assert_quiescent ~what (Env.buffer wide_env);
      Sched.assert_quiescent ~what (Sched.default ());
      Sched.assert_quiescent ~what wide;
      ok)

(* The projection-pushdown rewrite — an aggregate directly over
   projections folds the projections into its own key and argument
   expressions — runs only on the batch path, so it needs its own
   differential, and over data nastier than the random-plan corpus's
   all-int tuples: zero divisors make Null keys and Null sums, stray
   floats and strings defeat the int kernels mid-build (demoting groups
   and the unboxed key probe), and generic aggregates (Avg, Min) drive
   the expression-keyed generic build. *)
let test_pushdown_differential () =
  let rng = Rng.create 0xBADDECAFL in
  let mixed i =
    let v k =
      match Rng.int rng 10 with
      | 0 -> Value.Null
      | 1 -> Value.Float (float_of_int k /. 2.0)
      | 2 -> Value.Str (string_of_int (k mod 5))
      | _ -> Value.Int (k mod 17)
    in
    [| v i; v (i * 3); v (i * 7); Value.Int (i mod 4) |]
  in
  for case = 0 to 49 do
    let n = 50 + Rng.int rng 200 in
    let tuples = List.init n mixed in
    let aggs =
      if case mod 2 = 0 then
        [ Aggregate.Count; Aggregate.Sum (Expr.Div (Expr.Col 1, Expr.Col 2)) ]
      else
        (* Avg reads the Mod projection (always Int or Null): Avg over a
           string raises in every path, which is not what this test is
           about.  Min takes anything. *)
        [ Aggregate.Avg (Expr.Col 0); Aggregate.Min (Expr.Col 1) ]
    in
    let plan =
      Plan.Aggregate
        {
          algo = Plan.Hash_based;
          group_by = [ 0; 1 ];
          aggs;
          input =
            Plan.Project_exprs
              {
                exprs =
                  [
                    Expr.Mod (Expr.Col 0, Expr.Col 3);
                    Expr.Col 2;
                    Expr.Div (Expr.Col 1, Expr.Col 3);
                  ];
                input =
                  Plan.Project_cols
                    {
                      cols = [ 2; 0; 1; 3 ];
                      input = Plan.Scan_list { arity = 4; tuples };
                    };
              };
        }
    in
    let batched = Runner.run (env ()) plan in
    let record = Runner.run (env ~batch_size:0 ()) plan in
    check_rows (Printf.sprintf "pushdown case %d" case) record batched
  done

(* --- fused hash joins ------------------------------------------------ *)

let match_kinds =
  Match_op.
    [
      Join;
      Left_outer;
      Right_outer;
      Full_outer;
      Semi;
      Anti;
      Union;
      Intersection;
      Difference;
      Anti_difference;
    ]

(* A hash join over a fusible probe chain (list scan under a filter):
   the join is a node of the fused chain, its build side a plain list. *)
let join_plan kind ~left ~right =
  Plan.Match
    {
      algo = Plan.Hash_based;
      kind;
      left_key = [ 0 ];
      right_key = [ 0 ];
      left =
        Plan.Filter
          {
            pred = Expr.Cmp (Expr.Ne, Expr.Col 1, Expr.int 3);
            mode = `Compiled;
            input = Plan.Scan_list { arity = 2; tuples = left };
          };
      right = Plan.Scan_list { arity = 2; tuples = right };
    }

(* Every match kind, fused at several batch sizes against the record
   path, in exact order: as the root (a packet pipeline) and under a hash
   aggregate (the sink drive loop).  The inputs cover duplicate build keys
   with more matches per probe than a batch holds, empty build and probe
   sides, and mixed Int/Float/Str/Null keys; each runs in memory and
   again with a build capacity small enough to force the Grace path,
   whose result must be the in-memory one up to order. *)
let test_join_differential () =
  let rng = Rng.create 0x10115L in
  let ints keys = List.mapi (fun i k -> Tuple.of_ints [ k; i ]) keys in
  let mixed n =
    List.init n (fun i ->
        let key =
          match Rng.int rng 4 with
          | 0 -> Value.Int (Rng.int rng 6)
          | 1 -> Value.Float (float_of_int (Rng.int rng 4) /. 2.0)
          | 2 -> Value.Str (string_of_int (Rng.int rng 4))
          | _ -> Value.Null
        in
        [| key; Value.Int i |])
  in
  let cases =
    [
      ("duplicates", ints (List.init 300 (fun i -> i mod 5)),
        ints (List.init 200 (fun i -> i mod 3)));
      ("empty build", ints (List.init 50 (fun i -> i mod 7)), []);
      ("empty probe", [], ints (List.init 50 (fun i -> i mod 7)));
      ("mixed keys", mixed 150, mixed 120);
    ]
  in
  let run ?capacity ~batch_size plan =
    let e = env ~batch_size () in
    Option.iter (Env.set_sort_run_capacity e) capacity;
    let rows = Runner.run e plan in
    Bufpool.assert_quiescent ~what:"join differential" (Env.buffer e);
    rows
  in
  List.iter
    (fun (case, left, right) ->
      List.iter
        (fun kind ->
          let join = join_plan kind ~left ~right in
          let agg =
            Plan.Aggregate
              {
                algo = Plan.Hash_based;
                group_by = [ 0 ];
                aggs = [ Aggregate.Count ];
                input = join;
              }
          in
          List.iter
            (fun (shape, plan) ->
              let in_memory = run ~batch_size:0 plan in
              let grace = run ~capacity:8 ~batch_size:0 plan in
              let what =
                Printf.sprintf "%s, %s, %s" case (Match_op.to_string kind) shape
              in
              check_rows (what ^ ", grace = in-memory")
                (List.sort Tuple.compare in_memory)
                (List.sort Tuple.compare grace);
              List.iter
                (fun batch_size ->
                  check_rows
                    (Printf.sprintf "%s, batch %d" what batch_size)
                    in_memory (run ~batch_size plan);
                  check_rows
                    (Printf.sprintf "%s, grace, batch %d" what batch_size)
                    grace
                    (run ~capacity:8 ~batch_size plan))
                [ 1; 7; 64 ])
            [ ("root", join); ("under aggregate", agg) ])
        match_kinds)
    cases

(* A fused join inside exchange producers: each producer probes with its
   own slice, the build side is a list every producer reads whole. *)
let test_join_under_exchange () =
  let right = List.init 90 (fun i -> Tuple.of_ints [ i mod 30; i ]) in
  List.iter
    (fun kind ->
      let plan =
        Plan.Exchange
          {
            cfg = Exchange.config ~degree:3 ();
            input =
              Plan.Match
                {
                  algo = Plan.Hash_based;
                  kind;
                  left_key = [ 0 ];
                  right_key = [ 0 ];
                  left =
                    Plan.Generate_slice
                      {
                        arity = 2;
                        count = 2000;
                        gen = (fun i -> Tuple.of_ints [ i mod 40; i ]);
                      };
                  right = Plan.Scan_list { arity = 2; tuples = right };
                };
          }
      in
      let batched = env () in
      check_rows
        (Match_op.to_string kind ^ " under exchange")
        (sorted_run (env ~batch_size:0 ()) plan)
        (sorted_run batched plan);
      Bufpool.assert_quiescent ~what:"join under exchange" (Env.buffer batched);
      Sched.assert_quiescent ~what:"join under exchange" (Sched.default ()))
    match_kinds

(* --- planlint -------------------------------------------------------- *)

let has_code diags code =
  List.exists (fun (d : Diag.t) -> String.equal d.code code) diags

let test_planlint_batch () =
  let e = env () in
  let plan = fused_chain 10 in
  (* An illegal knob is an error (VL601), sharing Batch.validate. *)
  let diags = Compile.analyze ~batch_size:300 e plan in
  check Alcotest.bool "batch-size error" true
    (has_code (Diag.errors diags) "batch-size");
  check Alcotest.(option string) "VL601" (Some "VL601")
    (Diag.vl_code (Diag.error ~code:"batch-size" ~path:"root" "x"));
  (* A port packet smaller than the batch splits every batch: VL602. *)
  let small_edge =
    Plan.Exchange
      {
        cfg = Exchange.config ~degree:2 ~packet_size:4 ();
        input = Plan.Generate_slice { arity = 3; count = 10; gen = gen_tuple };
      }
  in
  let diags = Compile.analyze ~batch_size:64 e small_edge in
  check Alcotest.bool "mismatch warning" true
    (has_code diags "batch-packet-mismatch");
  check Alcotest.bool "mismatch is not an error" false
    (has_code (Diag.errors diags) "batch-packet-mismatch");
  check Alcotest.(option string) "VL602" (Some "VL602")
    (Diag.vl_code (Diag.warning ~code:"batch-packet-mismatch" ~path:"root" "x"));
  (* The default port packet (83) comfortably holds the default batch
     (64): clean.  Batching off checks nothing. *)
  check Alcotest.bool "default sizes clean" false
    (has_code (Compile.analyze e small_edge |> Diag.errors) "batch-size");
  check Alcotest.bool "disabled checks nothing" false
    (has_code (Compile.analyze ~batch_size:0 e small_edge)
       "batch-packet-mismatch")

let suite =
  [
    Alcotest.test_case "bridge roundtrip" `Quick test_bridge_roundtrip;
    Alcotest.test_case "knob validation" `Quick test_validate;
    Alcotest.test_case "edge sizes" `Quick test_edge_sizes;
    Alcotest.test_case "reopen resets state" `Quick test_reopen_resets_state;
    Alcotest.test_case "early close mid-batch" `Quick test_early_close_mid_batch;
    Runner.qcheck prop_batch_iterator_differential;
    Runner.qcheck prop_batch_iterator_serial_identical;
    Runner.wide_pool_property ~name:"batched plans agree narrow vs wide pool"
      prop_batch_narrow_wide;
    Alcotest.test_case "projection pushdown differential" `Quick
      test_pushdown_differential;
    Alcotest.test_case "fused join differential, every kind" `Quick
      test_join_differential;
    Alcotest.test_case "fused join under exchange" `Quick
      test_join_under_exchange;
    Alcotest.test_case "planlint batch pass" `Quick test_planlint_batch;
  ]
