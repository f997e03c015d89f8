(* Observability subsystem tests: registry semantics, the instrumented
   iterator wrapper, counter-consistency invariants over real parallel
   runs, disabled-path transparency, and exporter well-formedness. *)

module Obs = Volcano_obs.Obs
module Jsonx = Volcano_obs.Jsonx
module Iterator = Volcano.Iterator
module Exchange = Volcano.Exchange
module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Profile = Volcano_plan.Profile
module Tuple = Volcano_tuple.Tuple

let check = Alcotest.check

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_registry () =
  let sink = Obs.create () in
  check Alcotest.bool "enabled" true (Obs.enabled sink);
  let c = Obs.counter sink "packets" in
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  check Alcotest.int "counter" 5 (Obs.Counter.value c);
  let c' = Obs.counter sink "packets" in
  Obs.Counter.incr c';
  check Alcotest.int "find-or-create shares state" 6 (Obs.Counter.value c);
  let g = Obs.gauge sink "depth" in
  Obs.Gauge.set g 3.5;
  check (Alcotest.float 1e-9) "gauge" 3.5 (Obs.Gauge.value g);
  let h = Obs.histogram sink "latency" in
  List.iter (fun x -> Obs.Histogram.observe h x) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "histogram count" 4 (Obs.Histogram.count h);
  check (Alcotest.float 1e-9) "histogram mean" 2.5 (Obs.Histogram.mean h);
  check (Alcotest.float 1e-9) "histogram median" 2.5
    (Obs.Histogram.percentile h 0.5)

let test_null_sink () =
  check Alcotest.bool "disabled" false (Obs.enabled Obs.null);
  let n = Obs.node Obs.null ~label:"x" in
  (* Recording through a null node is harmless and registers nothing. *)
  Obs.Node.count_open n;
  Obs.Node.on_next n ~produced:true ~elapsed:0.001;
  check Alcotest.int "no nodes" 0 (List.length (Obs.nodes Obs.null));
  let c = Obs.counter Obs.null "x" in
  Obs.Counter.incr c;
  check Alcotest.int "unregistered metric" 0
    (Obs.Counter.value (Obs.counter Obs.null "x"))

let test_instrumented_iterator () =
  let sink = Obs.create () in
  let node = Obs.node sink ~label:"scan" in
  let inner = Iterator.of_list (List.map (fun i -> Tuple.of_ints [ i ]) [ 1; 2; 3 ]) in
  let it = Iterator.instrumented ~node inner in
  Iterator.open_ it;
  let rec drain n =
    match Iterator.next it with Some _ -> drain (n + 1) | None -> n
  in
  let rows = drain 0 in
  Iterator.close it;
  check Alcotest.int "rows drained" 3 rows;
  check Alcotest.int "node rows" 3 (Obs.Node.rows node);
  check Alcotest.int "opens" 1 (Obs.Node.opens node);
  check Alcotest.int "closes" 1 (Obs.Node.closes node);
  check Alcotest.int "next calls" 4 (Obs.Node.next_calls node);
  check Alcotest.bool "busy time accumulates" true (Obs.Node.busy_s node >= 0.0);
  match Obs.spans sink with
  | [ span ] ->
      check Alcotest.int "span rows" 3 span.Obs.span_rows;
      check Alcotest.bool "span ordered" true (span.Obs.stop >= span.Obs.start);
      check Alcotest.string "span label" "scan" span.Obs.span_label
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

(* A two-exchange topology: 3 producers hash-partition into 2 middle
   processes that forward round-robin to the root. *)
let parallel_plan n =
  let inner =
    Plan.Exchange
      {
        cfg =
          Exchange.config ~degree:3 ~packet_size:5 ~flow_slack:(Some 2)
            ~partition:(Exchange.Hash_on [ 1 ]) ();
        input =
          Plan.Generate_slice
            {
              arity = 2;
              count = n;
              gen = (fun i -> Tuple.of_ints [ i; i mod 10 ]);
            };
      }
  in
  Plan.Exchange
    {
      cfg = Exchange.config ~degree:2 ~packet_size:7 ~flow_slack:(Some 2) ();
      input = inner;
    }

let test_exchange_invariants () =
  let n = 2000 in
  let env = Env.create () in
  let plan = parallel_plan n in
  let sink = Obs.create () in
  let obs = Compile.observe sink plan in
  let rows = Iterator.consume (Compile.compile ~obs env plan) in
  check Alcotest.int "all rows arrive" n rows;
  (* Spans balanced: every open of every rank got its close. *)
  List.iter
    (fun node ->
      check Alcotest.int
        (Obs.Node.label node ^ ": opens = closes")
        (Obs.Node.opens node) (Obs.Node.closes node))
    (Obs.nodes sink);
  (* Packet conservation per port, and per-producer counts sum to the
     total. *)
  let samples =
    List.filter_map
      (fun node ->
        Option.map (fun s -> (node, s)) (Obs.exchange_sample sink ~node))
      (Obs.nodes sink)
  in
  check Alcotest.int "both exchanges sampled" 2 (List.length samples);
  List.iter
    (fun (node, s) ->
      let label = Obs.Node.label node in
      check Alcotest.int (label ^ ": sent = received") s.Obs.packets_sent
        s.Obs.packets_received;
      check Alcotest.int
        (label ^ ": per-producer sums to total")
        s.Obs.packets_sent
        (Array.fold_left ( + ) 0 s.Obs.per_producer);
      check Alcotest.int (label ^ ": every record crossed") n s.Obs.records;
      check Alcotest.bool (label ^ ": some packets flowed") true
        (s.Obs.packets_sent > 0);
      check Alcotest.bool (label ^ ": queue depth seen") true
        (s.Obs.max_queue_depth >= 1))
    samples

let test_disabled_identical () =
  let n = 500 in
  let run instrument =
    let env = Env.create () in
    let plan = parallel_plan n in
    let it =
      if instrument then
        Compile.compile ~obs:(Compile.observe (Obs.create ()) plan) env plan
      else Compile.compile env plan
    in
    List.sort Tuple.compare (Iterator.to_list it)
  in
  check Alcotest.bool "results identical with obs on/off" true
    (run true = run false)

(* The ring-path variants the plan above does not reach: a merge network
   (keep-separate lanes drained with receive_from) and an unbounded port
   (flow control off, the striped mutex-queue lanes).  Observation must
   not perturb either — the [timed] flag only changes whether stall waits
   read the clock, never what flows. *)
let test_disabled_identical_ring_paths () =
  let n = 600 in
  let merge_plan =
    Plan.Exchange_merge
      {
        cfg =
          Exchange.config ~degree:3 ~packet_size:4 ~flow_slack:(Some 2) ();
        key = [ (0, Volcano_tuple.Support.Asc) ];
        input =
          Plan.Sort
            {
              key = [ (0, Volcano_tuple.Support.Asc) ];
              input =
                Plan.Generate_slice
                  {
                    arity = 2;
                    count = n;
                    gen = (fun i -> Tuple.of_ints [ (7 * i) mod n; i ]);
                  };
            };
      }
  in
  let unbounded_plan =
    Plan.Exchange
      {
        cfg = Exchange.config ~degree:3 ~packet_size:4 ~flow_slack:None ();
        input =
          Plan.Generate_slice
            { arity = 2; count = n; gen = (fun i -> Tuple.of_ints [ i; i ]) };
      }
  in
  List.iter
    (fun (label, ordered, plan) ->
      let run instrument =
        let env = Env.create () in
        let it =
          if instrument then
            Compile.compile ~obs:(Compile.observe (Obs.create ()) plan) env plan
          else Compile.compile env plan
        in
        let rows = Iterator.to_list it in
        (* A merge network's output order is deterministic (unique sort
           keys here) and must not depend on being observed; a plain
           multi-producer exchange interleaves nondeterministically either
           way, so only its multiset is comparable. *)
        if ordered then rows else List.sort Tuple.compare rows
      in
      check Alcotest.bool (label ^ " identical with obs on/off") true
        (List.equal Tuple.equal (run true) (run false)))
    [
      ("merge network", true, merge_plan);
      ("unbounded exchange", false, unbounded_plan);
    ]

(* Every exchange face reports through one sample function; pin the
   fields each face must keep.  A merged or keep-separate (merge network)
   exchange forks [degree] producers and every record crosses its port;
   the no-fork interchange forks nothing, so it reports zero domains and
   zero spawn/join time.  Packets sent = received on every face. *)
let test_sample_per_face () =
  let n = 600 in
  let gen =
    Plan.Generate_slice
      { arity = 2; count = n; gen = (fun i -> Tuple.of_ints [ (7 * i) mod n; i ]) }
  in
  let cfg ?partition degree =
    Exchange.config ~degree ~packet_size:4 ~flow_slack:(Some 2) ?partition ()
  in
  let key = [ (0, Volcano_tuple.Support.Asc) ] in
  let exchange = Plan.Exchange { cfg = cfg 3; input = gen } in
  let merge =
    Plan.Exchange_merge
      { cfg = cfg 3; key; input = Plan.Sort { key; input = gen } }
  in
  let interchange =
    Plan.Interchange
      { cfg = cfg ~partition:(Exchange.Hash_on [ 0 ]) 2; input = gen }
  in
  let sample plan node_plan =
    let env = Env.create () in
    let sink = Obs.create () in
    let obs = Compile.observe sink plan in
    let rows = Iterator.consume (Compile.compile ~obs env plan) in
    check Alcotest.int "all rows arrive" n rows;
    match Option.bind (obs.Compile.node_of node_plan) (fun node ->
              Obs.exchange_sample sink ~node)
    with
    | Some s ->
        check Alcotest.int "sent = received" s.Obs.packets_sent
          s.Obs.packets_received;
        s
    | None -> Alcotest.fail "exchange not sampled"
  in
  List.iter
    (fun (face, plan) ->
      let s = sample plan plan in
      check Alcotest.int (face ^ ": tasks = degree") 3 s.Obs.tasks;
      check Alcotest.int (face ^ ": every record crossed") n s.Obs.records;
      check Alcotest.bool (face ^ ": spawn timed") true (s.Obs.spawn_s > 0.0))
    [ ("exchange", exchange); ("exchange merge", merge) ];
  let s =
    sample (Plan.Exchange { cfg = cfg 2; input = interchange }) interchange
  in
  check Alcotest.int "interchange: no tasks" 0 s.Obs.tasks;
  check (Alcotest.float 0.0) "interchange: no spawn time" 0.0 s.Obs.spawn_s;
  check (Alcotest.float 0.0) "interchange: no join time" 0.0 s.Obs.join_s;
  check Alcotest.bool "interchange: packets flowed" true
    (s.Obs.packets_sent > 0)

(* Batched execution: a fused scan→filter→project chain flushes node
   counters once per batch instead of once per record.  Per-node row
   counts must stay exact, every open must get its close (and a span),
   and the per-batch [next_calls] must be far below the row count —
   the visible footprint of vectorization. *)
let test_fused_chain_counters () =
  let n = 1000 in
  let scan =
    Plan.Generate
      { arity = 2; count = n; gen = (fun i -> Tuple.of_ints [ i; i mod 10 ]) }
  in
  let filter =
    Plan.Filter
      {
        pred =
          Volcano_tuple.Expr.Cmp
            ( Volcano_tuple.Expr.Lt,
              Volcano_tuple.Expr.Col 1,
              Volcano_tuple.Expr.Const (Volcano_tuple.Value.Int 5) );
        mode = `Compiled;
        input = scan;
      }
  in
  let plan = Plan.Project_cols { cols = [ 0 ]; input = filter } in
  let env = Env.create () in
  check Alcotest.bool "batching on by default" true (Env.batch_size env > 0);
  let sink = Obs.create () in
  let obs = Compile.observe sink plan in
  let rows = Iterator.consume (Compile.compile ~obs env plan) in
  check Alcotest.int "output rows" (n / 2) rows;
  let node_for p =
    match obs.Compile.node_of p with
    | Some node -> node
    | None -> Alcotest.fail "plan node not observed"
  in
  List.iter
    (fun (what, p, expect) ->
      let node = node_for p in
      check Alcotest.int (what ^ " rows exact") expect (Obs.Node.rows node);
      check Alcotest.int (what ^ " opens") 1 (Obs.Node.opens node);
      check Alcotest.int (what ^ " closes") 1 (Obs.Node.closes node);
      (* One flush per batch (plus the final empty next): with the
         default batch size this is ~n/64, nowhere near n. *)
      check Alcotest.bool
        (what ^ " next_calls counts batches")
        true
        (Obs.Node.next_calls node > 0 && Obs.Node.next_calls node <= (n / 32) + 2))
    [ ("scan", scan, n); ("filter", filter, n / 2); ("root project", plan, n / 2) ];
  check Alcotest.int "one span per fused node" 3 (List.length (Obs.spans sink));
  List.iter
    (fun span ->
      check Alcotest.bool "span ordered" true (span.Obs.stop >= span.Obs.start))
    (Obs.spans sink)

(* A projection folded into the scan's decode keeps the books of two
   separate stages: both plan nodes count every row, and the generic
   [Operator] fault site fires once per node per record — the same as a
   scan under a projection the decode cannot absorb (a repeated column;
   narrowing leaves it as written, as the table leaf's own cut), on both
   the fused and the record path, plain and sliced. *)
let test_projected_scan_books () =
  let n = 300 in
  let count_operator_hits =
    {
      Volcano_fault.seed = 1L;
      rules =
        [
          {
            Volcano_fault.site = Volcano_fault.Operator;
            trigger = Volcano_fault.At_hit max_int;
            action = Volcano_fault.Fail;
          };
        ];
    }
  in
  let books ~batch_size ~sliced project =
    let env = Env.create ~frames:64 ~page_size:1024 ~batch_size () in
    Volcano_wisconsin.Wisconsin.load ~env ~name:"t" ~n ();
    let scan = if sliced then Plan.Scan_table_slice "t" else Plan.Scan_table "t" in
    let proj = project scan in
    let plan =
      if sliced then Plan.Exchange { cfg = Exchange.config ~degree:2 (); input = proj }
      else proj
    in
    let injector = Volcano_fault.Injector.make count_operator_hits in
    Env.set_faults env injector;
    let sink = Obs.create () in
    let obs = Compile.observe sink plan in
    let rows =
      List.sort Tuple.compare (Iterator.to_list (Compile.compile ~obs env plan))
    in
    let node_rows p =
      match obs.Compile.node_of p with
      | Some node -> Obs.Node.rows node
      | None -> Alcotest.fail "plan node not observed"
    in
    (rows, node_rows scan, node_rows proj, Volcano_fault.Injector.hits injector)
  in
  let folded scan = Plan.Project_cols { cols = [ 4; 0 ]; input = scan } in
  let separate scan = Plan.Project_cols { cols = [ 4; 0; 4 ]; input = scan } in
  let first_two rows = List.map (fun t -> Array.sub t 0 2) rows in
  List.iter
    (fun (batch_size, sliced) ->
      let what =
        Printf.sprintf "batch %d%s" batch_size (if sliced then ", sliced" else "")
      in
      let rows, scan_rows, proj_rows, hits = books ~batch_size ~sliced folded in
      let rows', scan_rows', proj_rows', hits' =
        books ~batch_size ~sliced separate
      in
      check Alcotest.bool (what ^ ": same rows") true
        (List.equal Tuple.equal rows (first_two rows'));
      check Alcotest.int (what ^ ": scan node rows") n scan_rows;
      check Alcotest.int (what ^ ": project node rows") n proj_rows;
      check Alcotest.int (what ^ ": scan rows as separate") scan_rows' scan_rows;
      check Alcotest.int (what ^ ": project rows as separate") proj_rows' proj_rows;
      check Alcotest.bool (what ^ ": operator site consulted") true (hits >= 2 * n);
      check Alcotest.int (what ^ ": operator hits as separate") hits' hits)
    [ (0, false); (64, false); (0, true); (64, true) ]

(* The parallel invariants above (packet conservation, spans balanced,
   obs on/off identical) run with batching on by default.  Pin down that
   the batched and record-at-a-time executions also agree with each other
   under observation — same rows, same exact per-node row counters. *)
let test_batching_counters_match_record_path () =
  let n = 1200 in
  let run batch_size =
    let env = Env.create ~batch_size () in
    let plan = parallel_plan n in
    let sink = Obs.create () in
    let obs = Compile.observe sink plan in
    let rows =
      List.sort Tuple.compare (Iterator.to_list (Compile.compile ~obs env plan))
    in
    let counters =
      List.map
        (fun node -> (Obs.Node.label node, Obs.Node.rows node))
        (List.sort
           (fun a b -> compare (Obs.Node.label a) (Obs.Node.label b))
           (Obs.nodes sink))
    in
    (rows, counters)
  in
  let batched_rows, batched_counters = run 64 in
  let record_rows, record_counters = run 0 in
  check Alcotest.bool "rows identical" true
    (List.equal Tuple.equal batched_rows record_rows);
  check
    Alcotest.(list (pair string int))
    "per-node row counters identical" record_counters batched_counters

(* A hash join fused into the aggregate's drive loop: scan → project
   probe the join inside one loop.  Per-node rows stay exact (equal to
   the record path's), the join books per batch like every fused node,
   and the build phase — a deliberately slow build input — is booked to
   the join, not to the probe-side nodes below it. *)
let test_fused_join_books () =
  let n = 1000 and builds = 40 and nap = 0.0025 in
  let scan =
    Plan.Generate
      { arity = 2; count = n; gen = (fun i -> Tuple.of_ints [ i; i mod 10 ]) }
  in
  let project = Plan.Project_cols { cols = [ 1; 0 ]; input = scan } in
  let build =
    Plan.Generate
      {
        arity = 2;
        count = builds;
        gen =
          (fun i ->
            Unix.sleepf nap;
            Tuple.of_ints [ i mod 10; i ]);
      }
  in
  let join =
    Plan.Match
      {
        algo = Plan.Hash_based;
        kind = Volcano_ops.Match_op.Join;
        left_key = [ 0 ];
        right_key = [ 0 ];
        left = project;
        right = build;
      }
  in
  (* the aggregate reads every column of the join, so narrowing leaves
     the plan as written and each node observed here is compiled *)
  let plan =
    Plan.Aggregate
      {
        algo = Plan.Hash_based;
        group_by = [ 0 ];
        aggs =
          Volcano_ops.Aggregate.
            [ Count; Sum (Volcano_tuple.Expr.Col 1); Sum (Volcano_tuple.Expr.Col 3) ];
        input = join;
      }
  in
  let run batch_size =
    let env = Env.create ~batch_size () in
    let sink = Obs.create () in
    let obs = Compile.observe sink plan in
    let rows = Iterator.to_list (Compile.compile ~obs env plan) in
    let node p =
      match obs.Compile.node_of p with
      | Some node -> node
      | None -> Alcotest.fail "plan node not observed"
    in
    (rows, node)
  in
  let rows, node = run 64 in
  let record_rows, record_node = run 0 in
  check Alcotest.bool "rows as the record path" true
    (List.equal Tuple.equal record_rows rows);
  let matches = n * builds / 10 in
  List.iter
    (fun (what, p, expect) ->
      check Alcotest.int (what ^ " rows exact") expect (Obs.Node.rows (node p));
      check Alcotest.int (what ^ " rows as the record path")
        (Obs.Node.rows (record_node p))
        (Obs.Node.rows (node p));
      check Alcotest.int (what ^ " opens") 1 (Obs.Node.opens (node p));
      check Alcotest.int (what ^ " closes") 1 (Obs.Node.closes (node p)))
    [
      ("scan", scan, n);
      ("project", project, n);
      ("build", build, builds);
      ("join", join, matches);
      ("aggregate", plan, 10);
    ];
  let join_nexts = Obs.Node.next_calls (node join) in
  check Alcotest.bool "join next_calls counts batches" true
    (join_nexts > 0 && join_nexts <= (matches / 32) + 2);
  let build_s = float_of_int builds *. nap in
  check Alcotest.bool "join books its build phase" true
    (Obs.Node.busy_s (node join) >= build_s);
  check Alcotest.bool "probe-side scan does not book the build phase" true
    (Obs.Node.busy_s (node scan) < build_s /. 2.0);
  check Alcotest.bool "probe-side project does not book the build phase" true
    (Obs.Node.busy_s (node project) < build_s /. 2.0)

let test_profile_batched_smoke () =
  let env = Env.create () in
  let report = Profile.execute env (parallel_plan 500) in
  check Alcotest.int "batched profile rows" 500 report.Profile.rows;
  List.iter
    (fun node ->
      check Alcotest.int
        (Obs.Node.label node ^ ": opens = closes")
        (Obs.Node.opens node) (Obs.Node.closes node))
    (Obs.nodes report.Profile.sink);
  let rendered = Profile.render report in
  check Alcotest.bool "render shows rows" true (contains rendered "rows=")

let test_null_observe_adds_nothing () =
  let plan = parallel_plan 10 in
  let o = Compile.observe Obs.null plan in
  check Alcotest.bool "no node assigned" true (o.Compile.node_of plan = None);
  check Alcotest.int "nothing registered" 0 (List.length (Obs.nodes Obs.null))

let test_exporters () =
  let env = Env.create () in
  let report = Profile.execute env (parallel_plan 300) in
  check Alcotest.int "report rows" 300 report.Profile.rows;
  let balanced s =
    let depth = ref 0 in
    String.iter
      (fun c ->
        if c = '{' || c = '[' then incr depth
        else if c = '}' || c = ']' then decr depth)
      s;
    !depth = 0
  in
  let trace = Jsonx.to_string (Obs.trace_json report.Profile.sink) in
  check Alcotest.bool "trace has traceEvents" true
    (contains trace "\"traceEvents\"");
  check Alcotest.bool "trace has complete events" true
    (contains trace "\"ph\":\"X\"");
  check Alcotest.bool "trace brackets balanced" true (balanced trace);
  let json = Jsonx.to_string (Profile.to_json report) in
  check Alcotest.bool "report has obs section" true (contains json "\"obs\"");
  check Alcotest.bool "report brackets balanced" true (balanced json);
  let rendered = Profile.render report in
  check Alcotest.bool "render shows packets" true (contains rendered "packets:");
  check Alcotest.bool "render shows rows" true (contains rendered "rows=")

let suite =
  [
    Alcotest.test_case "metrics registry" `Quick test_registry;
    Alcotest.test_case "null sink" `Quick test_null_sink;
    Alcotest.test_case "instrumented iterator" `Quick test_instrumented_iterator;
    Alcotest.test_case "exchange counter invariants" `Quick
      test_exchange_invariants;
    Alcotest.test_case "obs-disabled results identical" `Quick
      test_disabled_identical;
    Alcotest.test_case "obs-disabled identical on ring paths" `Quick
      test_disabled_identical_ring_paths;
    Alcotest.test_case "exchange sample per face" `Quick test_sample_per_face;
    Alcotest.test_case "fused chain node counters" `Quick
      test_fused_chain_counters;
    Alcotest.test_case "projected scan keeps both nodes' books" `Quick
      test_projected_scan_books;
    Alcotest.test_case "batched counters match record path" `Quick
      test_batching_counters_match_record_path;
    Alcotest.test_case "batched profile smoke" `Quick test_profile_batched_smoke;
    Alcotest.test_case "fused join books" `Quick test_fused_join_books;
    Alcotest.test_case "null observe adds nothing" `Quick
      test_null_observe_adds_nothing;
    Alcotest.test_case "exporters well-formed" `Quick test_exporters;
  ]
