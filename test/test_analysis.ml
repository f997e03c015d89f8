(* Planlint: one malformed plan per diagnostic class, plus the wiring
   tests — Compile.compile (default ~check:true) must reject at submit
   time exactly the mistakes that previously failed only at runtime,
   deep inside a forked domain. *)

module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Exchange = Volcano.Exchange
module Diag = Volcano_plan.Diag
module Tuple = Volcano_tuple.Tuple
module Expr = Volcano_tuple.Expr
module Support = Volcano_tuple.Support

let check = Alcotest.check
let env () = Env.create ~frames:64 ~page_size:512 ()

let gen n = Plan.Generate { arity = 3; count = n; gen = (fun i -> Tuple.of_ints [ i; i mod 5; i mod 7 ]) }

let has ?severity code diags =
  List.exists
    (fun (d : Diag.t) ->
      String.equal d.code code
      && match severity with None -> true | Some s -> d.severity = s)
    diags

let codes diags =
  String.concat ", " (List.map (fun (d : Diag.t) -> d.code) diags)

let assert_flags ?severity name code plan =
  let diags = Compile.analyze (env ()) plan in
  if not (has ?severity code diags) then
    Alcotest.failf "%s: expected %s among [%s]" name code (codes diags)

let assert_clean name plan =
  let errors = Diag.errors (Compile.analyze (env ()) plan) in
  if errors <> [] then
    Alcotest.failf "%s: expected no errors, got [%s]" name (codes errors)

let assert_rejected name code plan =
  match Compile.compile (env ()) plan with
  | _ -> Alcotest.failf "%s: expected Compile.Rejected" name
  | exception Compile.Rejected errors ->
      if not (has ~severity:Diag.Error code errors) then
        Alcotest.failf "%s: expected error %s among [%s]" name code
          (codes errors)

(* --- pass 1: schema / arity ----------------------------------------- *)

let test_schema_columns () =
  assert_rejected "project out of range" "schema-col"
    (Plan.Project_cols { cols = [ 0; 3 ]; input = gen 10 });
  assert_rejected "filter column out of range" "schema-col"
    (Plan.Filter
       {
         pred = Expr.Infix.( = ) (Expr.col 7) (Expr.int 0);
         mode = `Compiled;
         input = gen 10;
       });
  assert_rejected "sort key out of range" "schema-col"
    (Plan.Sort { key = [ (3, Support.Asc) ]; input = gen 10 });
  (* Arity inference must flow through projections: col 2 is valid below
     the projection, invalid above it. *)
  assert_rejected "stale column above projection" "schema-col"
    (Plan.Filter
       {
         pred = Expr.Infix.( = ) (Expr.col 2) (Expr.int 0);
         mode = `Compiled;
         input = Plan.Project_cols { cols = [ 0; 1 ]; input = gen 10 };
       });
  assert_clean "valid columns"
    (Plan.Filter
       {
         pred = Expr.Infix.( = ) (Expr.col 2) (Expr.int 0);
         mode = `Compiled;
         input = gen 10;
       })

let test_schema_match_keys () =
  assert_rejected "mismatched key lists" "schema-match-keys"
    (Plan.Match
       {
         algo = Plan.Hash_based;
         kind = Volcano_ops.Match_op.Join;
         left_key = [ 0 ];
         right_key = [ 0; 1 ];
         left = gen 10;
         right = gen 10;
       });
  assert_rejected "union of different widths" "schema-union-arity"
    (Plan.Match
       {
         algo = Plan.Sort_based;
         kind = Volcano_ops.Match_op.Union;
         left_key = [ 0 ];
         right_key = [ 0 ];
         left = gen 10;
         right = Plan.Project_cols { cols = [ 0 ]; input = gen 10 };
       })

let test_schema_leaves () =
  assert_rejected "unknown table" "schema-unknown-source"
    (Plan.Scan_table "nonexistent");
  assert_rejected "literal width mismatch" "schema-row-width"
    (Plan.Scan_list { arity = 2; tuples = [ Tuple.of_ints [ 1; 2; 3 ] ] });
  assert_rejected "choose-plan width disagreement" "schema-choose-arity"
    (Plan.Choose
       {
         decide = (fun () -> 0);
         alternatives =
           [ gen 10; Plan.Project_cols { cols = [ 0 ]; input = gen 10 } ];
       })

(* The acceptance-criterion case: an out-of-bounds partition column used
   to blow up at fork time, inside a producer domain; now it is rejected
   at submit time. *)
let test_schema_partition_column () =
  let plan =
    Plan.Exchange
      {
        cfg = Exchange.config ~degree:2 ~partition:(Exchange.Hash_on [ 5 ]) ();
        input = gen 40;
      }
  in
  assert_rejected "partition column out of range" "schema-col" plan;
  (* Unchecked, the same plan still fails — but only at runtime. *)
  match Runner.run ~check:false (env ()) plan with
  | _ -> Alcotest.fail "expected a runtime failure with ~check:false"
  | exception Compile.Rejected _ -> Alcotest.fail "~check:false must not analyze"
  | exception _ -> ()

(* --- pass 2: exchange configuration --------------------------------- *)

let test_exchange_config_literals () =
  (* [Exchange.config] is private, so a malformed scalar field cannot ride
     into a plan at all: the constructor's validator rejects it first, and
     reports every problem at once, in order. *)
  check
    Alcotest.(list string)
    "validate codes"
    [ "exchange-degree"; "exchange-packet-size"; "exchange-flow-slack" ]
    (List.map fst
       (Exchange.validate ~degree:0 ~packet_size:0 ~flow_slack:(Some 0)))

let test_exchange_config_constructor () =
  List.iter
    (fun (name, f) ->
      match f () with
      | (_ : Exchange.config) ->
          Alcotest.failf "%s: expected Invalid_argument" name
      | exception Invalid_argument _ -> ())
    [
      ("degree 0", fun () -> Exchange.config ~degree:0 ());
      ("degree -3", fun () -> Exchange.config ~degree:(-3) ());
      ("packet 0", fun () -> Exchange.config ~packet_size:0 ());
      ("packet 256", fun () -> Exchange.config ~packet_size:256 ());
      ("slack 0", fun () -> Exchange.config ~flow_slack:(Some 0) ());
    ];
  (* Boundary values are accepted. *)
  ignore (Exchange.config ~degree:1 ~packet_size:1 ~flow_slack:(Some 1) ());
  ignore (Exchange.config ~packet_size:255 ~flow_slack:None ())

let test_merge_sortedness () =
  let key = [ (0, Support.Asc) ] in
  assert_rejected "merge over unsorted producers" "merge-unsorted"
    (Plan.Exchange_merge
       { cfg = Exchange.config ~degree:2 (); key; input = gen 40 });
  assert_rejected "merge key not a sort-key prefix" "merge-unsorted"
    (Plan.Exchange_merge
       {
         cfg = Exchange.config ~degree:2 ();
         key = [ (1, Support.Asc) ];
         input = Plan.Sort { key; input = gen 40 };
       });
  (* Sorting on a refinement of the merge key is fine. *)
  assert_clean "merge key is a prefix"
    (Plan.Exchange_merge
       {
         cfg = Exchange.config ~degree:2 ();
         key;
         input =
           Plan.Sort { key = [ (0, Support.Asc); (2, Support.Desc) ]; input = gen 40 };
       })

let test_interchange_placement () =
  assert_rejected "interchange cannot broadcast" "interchange-broadcast"
    (Plan.Interchange
       {
         cfg = Exchange.config ~degree:2 ~partition:Exchange.Broadcast ();
         input = gen 10;
       });
  assert_flags ~severity:Diag.Warning "interchange outside a group"
    "interchange-solo"
    (Plan.Interchange { cfg = Exchange.config ~degree:2 (); input = gen 10 });
  assert_rejected "range bounds vs consumers" "exchange-range-bounds"
    (Plan.Exchange
       {
         cfg =
           Exchange.config ~degree:2
             ~partition:
               (Exchange.Range_on
                  (0, [| Volcano_tuple.Value.Int 3; Volcano_tuple.Value.Int 6 |]))
             ();
         input = gen 10;
       })

(* --- pass 3: dataflow deadlock hazards ------------------------------ *)

let test_deadlock_merge_flow () =
  let key = [ (0, Support.Asc) ] in
  let merge ~flow_slack ~consumers =
    let network =
      Plan.Exchange_merge
        {
          cfg = Exchange.config ~degree:3 ~flow_slack ();
          key;
          input = Plan.Sort { key; input = gen 40 };
        }
    in
    if consumers = 1 then network
    else
      Plan.Exchange
        { cfg = Exchange.config ~degree:consumers (); input = network }
  in
  (* Hazardous: flow control + several producers + several consumers. *)
  assert_flags ~severity:Diag.Warning "merge network under flow control"
    "deadlock-merge-flow"
    (merge ~flow_slack:(Some 2) ~consumers:2);
  (* Either a solo consumer group or no flow control defuses it. *)
  assert_clean "solo consumer merge" (merge ~flow_slack:(Some 2) ~consumers:1);
  let diags =
    Compile.analyze (env ()) (merge ~flow_slack:None ~consumers:2)
  in
  if has "deadlock-merge-flow" diags then
    Alcotest.fail "flow control off: no merge-flow hazard expected"

let test_deadlock_broadcast_flow () =
  let mk algo =
    Plan.Exchange
      {
        cfg = Exchange.config ~degree:2 ();
        input =
          Plan.Match
            {
              algo;
              kind = Volcano_ops.Match_op.Join;
              left_key = [ 0 ];
              right_key = [ 0 ];
              left =
                Plan.Exchange
                  {
                    cfg =
                      Exchange.config ~degree:2 ~partition:Exchange.Broadcast ();
                    input = gen 40;
                  };
              right =
                Plan.Exchange
                  {
                    cfg =
                      Exchange.config ~degree:2
                        ~partition:(Exchange.Hash_on [ 0 ]) ();
                    input = gen 40;
                  };
            };
      }
  in
  assert_flags ~severity:Diag.Warning "broadcast + flow under sort-match"
    "deadlock-broadcast-flow" (mk Plan.Sort_based);
  (* A hash match drains one side completely before the other: no cycle. *)
  let diags = Compile.analyze (env ()) (mk Plan.Hash_based) in
  if has "deadlock-broadcast-flow" diags then
    Alcotest.fail "hash match: no broadcast-flow hazard expected"

(* --- pass 4: resource estimation ------------------------------------ *)

let test_resource_domains () =
  assert_flags ~severity:Diag.Warning "domain over-commit" "resource-domains"
    (Plan.Exchange { cfg = Exchange.config ~degree:600 (); input = gen 10 })

let test_resource_bufpool () =
  (* Two sorts, one inside a degree-4 group: ~40 estimated pages against
     the 64-frame pool of [env ()]?  Use a tighter pool. *)
  let tight = Env.create ~frames:16 ~page_size:512 () in
  let plan =
    Plan.Sort
      {
        key = [ (0, Support.Asc) ];
        input =
          Plan.Exchange
            {
              cfg = Exchange.config ~degree:4 ();
              input = Plan.Sort { key = [ (0, Support.Asc) ]; input = gen 40 };
            };
      }
  in
  let diags = Compile.analyze tight plan in
  if not (has ~severity:Diag.Warning "resource-bufpool" diags) then
    Alcotest.failf "expected resource-bufpool among [%s]" (codes diags)

let test_resource_bufpool_scan_runs () =
  (* A heap-scan member pins a run of [Bufpool.run_length_for] pages: 2 on
     the 64-frame pool of [env ()].  Forty members need 80 pages, twenty
     need 40; counted at one page a member, both fit. *)
  let e = env () in
  ignore
    (Env.create_table e ~name:"t"
       ~schema:
         (Volcano_tuple.Schema.of_names
            [ ("a", Volcano_tuple.Value.Tint); ("b", Volcano_tuple.Value.Tint) ]));
  check Alcotest.int "run length" 2
    (Volcano_storage.Bufpool.run_length_for ~frames:64);
  let scan degree =
    Plan.Exchange
      { cfg = Exchange.config ~degree (); input = Plan.Scan_table_slice "t" }
  in
  let flagged degree = has "resource-bufpool" (Compile.analyze e (scan degree)) in
  check Alcotest.bool "40 members draw VL402" true (flagged 40);
  check Alcotest.bool "20 members do not" false (flagged 20)

(* --- passes 5/6: scheduler placement, flow-control memory ------------ *)

let test_sched_dop () =
  (* 12 concurrent producer tasks in total (8 + 4). *)
  let plan =
    Plan.Exchange
      {
        cfg = Exchange.config ~degree:8 ();
        input =
          Plan.Exchange { cfg = Exchange.config ~degree:4 (); input = gen 10 };
      }
  in
  let dop workers = Compile.analyze ~workers (env ()) plan in
  (* Two workers admit 8 tasks at the 4x advisory: 12 is over. *)
  if not (has ~severity:Diag.Warning "sched-dop" (dop 2)) then
    Alcotest.failf "expected sched-dop on 2 workers, got [%s]" (codes (dop 2));
  (* Three workers admit exactly 12: the advisory is a strict bound. *)
  if has "sched-dop" (dop 3) then
    Alcotest.fail "12 tasks on 3 workers is within 4x oversubscription";
  (* A pool of no workers does not exist. *)
  Alcotest.check_raises "workers = 0"
    (Invalid_argument "Compile.analyze: workers must be positive") (fun () ->
      ignore (dop 0))

let test_mem_flow_slack () =
  let edge = Exchange.config ~degree:2 ~packet_size:100 ~flow_slack:(Some 5) () in
  let plan =
    Plan.Exchange
      { cfg = edge; input = Plan.Exchange { cfg = edge; input = gen 10 } }
  in
  (* Outer edge: 2 producers x 1 consumer x 5 packets x 100 records =
     1000; inner edge feeds the outer group's 2 consumers: 2x2x5x100 =
     2000.  Worst case 3000 records. *)
  let mem flow_budget = Compile.analyze ~flow_budget (env ()) plan in
  if not (has ~severity:Diag.Warning "mem-flow-slack" (mem 2999)) then
    Alcotest.failf "expected mem-flow-slack over a 2999-record budget, got [%s]"
      (codes (mem 2999));
  if has "mem-flow-slack" (mem 3000) then
    Alcotest.fail "3000 buffered records fit a 3000-record budget exactly";
  (* Edges without flow control are bounded by operator demand, not by
     the exchange: not counted. *)
  let unmetered =
    Plan.Exchange
      {
        cfg = Exchange.config ~degree:2 ~packet_size:100 ~flow_slack:None ();
        input = gen 10;
      }
  in
  if has "mem-flow-slack" (Compile.analyze ~flow_budget:1 (env ()) unmetered)
  then Alcotest.fail "flow control off: nothing to bound"

(* --- diagnostic paths -------------------------------------------------- *)

(* The path segments of every multi-input node, of a merge, and of a
   leaf below a wire edge, pinned as exact rendered lines: tooling keys
   on these strings, so a change to the analyzer's tree walk must not
   move them. *)
let test_diagnostic_paths () =
  let bad_col c = Plan.Project_cols { cols = [ c ]; input = gen 10 } in
  let lines plan =
    List.map Diag.to_string
      (Compile.analyze ~workers:64 ~batch_size:64 (env ()) plan)
  in
  let expect name want plan =
    check Alcotest.(list string) name want (lines plan)
  in
  let col_error path c =
    Printf.sprintf
      "error[VL101 schema-col] at %s: projection references column %d, but \
       the input has 3 column(s)"
      path c
  in
  expect "match inputs"
    [ col_error "match/left/project" 5; col_error "match/right/project" 6 ]
    (Plan.Match
       {
         algo = Plan.Hash_based;
         kind = Volcano_ops.Match_op.Join;
         left_key = [ 0 ];
         right_key = [ 0 ];
         left = bad_col 5;
         right = bad_col 6;
       });
  expect "division inputs"
    [
      col_error "division/dividend/project" 4;
      col_error "division/divisor/project" 7;
    ]
    (Plan.Division
       {
         algo = `Hash;
         quotient = [ 0 ];
         divisor_attrs = [ 0 ];
         divisor_key = [ 0 ];
         dividend = bad_col 4;
         divisor = bad_col 7;
       });
  expect "choose alternative"
    [
      "error[VL101 schema-col] at choose/alt1/filter: filter predicate \
       references column 8, but the input has 3 column(s)";
    ]
    (Plan.Choose
       {
         decide = (fun () -> 0);
         alternatives =
           [
             gen 10;
             Plan.Filter
               {
                 pred = Expr.Infix.( = ) (Expr.col 8) (Expr.int 0);
                 mode = `Compiled;
                 input = gen 10;
               };
           ];
       });
  expect "exchange-merge below an exchange"
    [
      "error[VL205 merge-unsorted] at exchange/exchange-merge: producers of \
       an exchange-merge must emit streams sorted on the merge key [0], but \
       the input does not establish an order";
    ]
    (Plan.Exchange
       {
         cfg = Exchange.config ~degree:2 ~flow_slack:None ();
         input =
           Plan.Exchange_merge
             {
               cfg = Exchange.config ~degree:2 ~flow_slack:None ();
               key = [ (0, Support.Asc) ];
               input = gen 10;
             };
       });
  expect "scan below a remote edge"
    [
      "error[VL103 schema-unknown-source] at \
       remote-exchange/scan:nowhere: scan:nowhere is not in the catalog";
    ]
    (Plan.Remote
       {
         cfg = Exchange.config ~degree:2 ();
         workers = 2;
         task = "scan";
         input = Plan.Scan_table "nowhere";
       })

(* --- wiring ----------------------------------------------------------- *)

let test_warnings_do_not_reject () =
  (* A hazardous-but-runnable plan (the merge-flow hazard over tiny data)
     compiles and runs under the default check; only errors reject. *)
  let key = [ (0, Support.Asc) ] in
  let plan =
    Plan.Exchange
      {
        cfg = Exchange.config ~degree:2 ();
        input =
          Plan.Exchange_merge
            {
              cfg = Exchange.config ~degree:3 ~flow_slack:(Some 2) ();
              key;
              input =
                Plan.Sort
                  {
                    key;
                    input =
                      Plan.Generate_slice
                        {
                          arity = 3;
                          count = 40;
                          gen = (fun i -> Tuple.of_ints [ i; i mod 5; i mod 7 ]);
                        };
                  };
            };
      }
  in
  let diags = Compile.analyze (env ()) plan in
  check Alcotest.bool "has the hazard warning" true
    (has ~severity:Diag.Warning "deadlock-merge-flow" diags);
  check Alcotest.bool "but no errors" true (Diag.errors diags = []);
  check Alcotest.int "still runs" 40 (Runner.count (env ()) plan)

let test_report_rendering () =
  let d =
    Diag.error ~code:"schema-col" ~path:"exchange/project" "column 9 of 3"
  in
  check Alcotest.string "to_string"
    "error[VL101 schema-col] at exchange/project: column 9 of 3"
    (Diag.to_string d);
  (* Unregistered (ad-hoc) codes render slug-only. *)
  check Alcotest.string "ad-hoc code"
    "warning[custom] at root: hello"
    (Diag.to_string (Diag.warning ~code:"custom" ~path:"root" "hello"));
  (* Every code the passes emit has a stable number, the numbers are
     unique, and the hundreds digit matches the pass family. *)
  let nums = List.map snd Diag.registry in
  check Alcotest.int "registry numbers unique"
    (List.length nums)
    (List.length (List.sort_uniq String.compare nums));
  check (Alcotest.option Alcotest.string) "sched-dop number" (Some "VL501")
    (Diag.vl_code (Diag.warning ~code:"sched-dop" ~path:"root" "x"));
  let report =
    Format.asprintf "%a" Diag.pp_report
      [ Diag.warning ~code:"w" ~path:"root" "warn"; d ]
  in
  check Alcotest.bool "errors sorted first" true
    (String.length report > 0
    && String.sub report 0 5 = "error");
  check Alcotest.string "empty report" "no diagnostics\n"
    (Format.asprintf "%a" Diag.pp_report [])

let suite =
  [
    Alcotest.test_case "schema: column references" `Quick test_schema_columns;
    Alcotest.test_case "schema: match keys" `Quick test_schema_match_keys;
    Alcotest.test_case "schema: leaves and choose" `Quick test_schema_leaves;
    Alcotest.test_case "schema: partition column rejected at submit" `Quick
      test_schema_partition_column;
    Alcotest.test_case "exchange: config literals" `Quick
      test_exchange_config_literals;
    Alcotest.test_case "exchange: config constructor" `Quick
      test_exchange_config_constructor;
    Alcotest.test_case "exchange: merge sortedness" `Quick test_merge_sortedness;
    Alcotest.test_case "exchange: interchange placement" `Quick
      test_interchange_placement;
    Alcotest.test_case "deadlock: merge + flow control" `Quick
      test_deadlock_merge_flow;
    Alcotest.test_case "deadlock: broadcast + flow control" `Quick
      test_deadlock_broadcast_flow;
    Alcotest.test_case "resource: domains" `Quick test_resource_domains;
    Alcotest.test_case "resource: buffer pool" `Quick test_resource_bufpool;
    Alcotest.test_case "resource: a scan member pins a page run" `Quick
      test_resource_bufpool_scan_runs;
    Alcotest.test_case "scheduler: degree-of-parallelism advisory" `Quick
      test_sched_dop;
    Alcotest.test_case "memory: flow-slack bound" `Quick test_mem_flow_slack;
    Alcotest.test_case "diagnostic paths" `Quick test_diagnostic_paths;
    Alcotest.test_case "warnings do not reject" `Quick
      test_warnings_do_not_reject;
    Alcotest.test_case "diagnostic rendering" `Quick test_report_rendering;
  ]
