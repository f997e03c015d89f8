(* The chaos harness: random plans (reusing the generators from
   [Test_random_plans]) run under random fault plans.

   For every seeded (plan, fault-plan) pair:
   - the decorated plan run fault-free must match the single-process
     oracle (the encapsulation property);
   - the run under injection must either produce exactly the oracle rows
     (no Fail rule fired, or it fired on a swallowed cleanup path) or
     raise a single well-typed failure — within a timeout;
   - afterwards the buffer pool holds zero fixes and every producer
     domain has been joined.

   Any violation prints the (plan_seed, fault_seed) pair and the fault
   plan, so the case replays exactly:

     CHAOS_SEEDS=500 dune build @chaos   # sweep a larger matrix

   The default matrix (100 pairs) runs in the tier-1 [dune runtest]. *)

module Iterator = Volcano.Iterator
module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Exchange = Volcano.Exchange
module Bufpool = Volcano_storage.Bufpool
module Tuple = Volcano_tuple.Tuple
module Rng = Volcano_util.Rng
module Fault = Volcano_fault
module Injector = Volcano_fault.Injector
module Obs = Volcano_obs.Obs
module Sched = Volcano_sched.Sched

let default_cases = 100

let cases () =
  match Sys.getenv_opt "CHAOS_SEEDS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> default_cases)
  | None -> default_cases

(* Generous bound: a healthy faulty run finishes in milliseconds; only a
   genuine hang (a blocked domain that never observed cancellation) gets
   anywhere near it. *)
let timeout_seconds = 20.0

type outcome = Rows of Tuple.t list | Raised of exn | Timeout

(* Run [f] in its own domain and poll for its result.  On timeout the
   worker domain is abandoned — the case has already failed, and the
   printed seed pair is what matters. *)
let run_with_timeout ~seconds f =
  let slot = Atomic.make None in
  let worker =
    Domain.spawn (fun () ->
        let r = try Rows (f ()) with exn -> Raised exn in
        Atomic.set slot (Some r))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get slot with
    | Some r ->
        Domain.join worker;
        r
    | None ->
        if Unix.gettimeofday () > deadline then Timeout
        else begin
          Unix.sleepf 0.001;
          wait ()
        end
  in
  wait ()

(* The failures a faulty run is allowed to surface: the exchange's single
   well-typed error, a raw injection (fired on a serial path with no
   exchange above it), or either of those wrapped once by a protecting
   close on the unwind path. *)
let rec acceptable_failure = function
  | Exchange.Query_failed _ | Fault.Injected _ -> true
  | Fun.Finally_raised e -> acceptable_failure e
  | _ -> false

let run_case ?batch_size ~plan_seed ~fault_seed () =
  let rng = Rng.create plan_seed in
  let depth = 1 + Rng.int rng 3 in
  let env = Env.create ~frames:128 ~page_size:512 ?batch_size () in
  (* Small runs force external sorts to spill, exercising the storage
     injection sites (device read/write, buffer fix) under parallelism. *)
  Env.set_sort_run_capacity env (8 + Rng.int rng 56);
  let serial = Test_random_plans.random_plan rng depth in
  let decorated = Test_random_plans.decorate rng serial in
  let fault_plan = Fault.random_plan ~seed:fault_seed in
  let repro () =
    Printf.sprintf
      "repro: CHAOS_REPRO=%Ld:%Ld (plan_seed:fault_seed), depth=%d\n\
       faults=%s\nplan:\n%s" plan_seed fault_seed depth
      (Fault.plan_to_string fault_plan)
      (Format.asprintf "%a" Plan.pp decorated)
  in
  let failf fmt =
    Printf.ksprintf (fun msg -> Alcotest.failf "%s\n%s" msg (repro ())) fmt
  in
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  let oracle = Test_random_plans.sorted_run env serial in
  if not (Test_random_plans.accepted env decorated) then
    failf "decorated plan rejected by the analyzer";
  (* Fault-free: the decoration must be invisible. *)
  let clean = Test_random_plans.sorted_run env decorated in
  if clean <> oracle then failf "fault-free decorated run diverges from oracle";
  (* Under injection. *)
  Env.set_faults env (Injector.make fault_plan);
  let outcome =
    run_with_timeout ~seconds:timeout_seconds (fun () ->
        List.sort Tuple.compare (Runner.run env decorated))
  in
  (match outcome with
  | Rows rows ->
      (* Nothing fired on a live path: the result must be untouched. *)
      if rows <> oracle then failf "faulty run completed with wrong rows"
  | Raised exn ->
      if not (acceptable_failure exn) then
        failf "unexpected failure type: %s" (Printexc.to_string exn)
  | Timeout -> failf "faulty run hung (> %.0fs)" timeout_seconds);
  Env.clear_faults env;
  (try Bufpool.assert_quiescent ~what:"chaos case" (Env.buffer env)
   with Failure msg -> failf "%s" msg);
  if Exchange.unjoined_tasks () <> unjoined0 then
    failf "leaked %d unjoined task(s)"
      (Exchange.unjoined_tasks () - unjoined0);
  if Exchange.live_tasks () <> live0 then
    failf "leaked %d live task(s)" (Exchange.live_tasks () - live0);
  try Sched.assert_quiescent ~what:"chaos case" (Sched.default ())
  with Failure msg -> failf "%s" msg

let test_matrix () =
  (* CHAOS_REPRO=<plan_seed>:<fault_seed> replays a single failing pair
     exactly as printed by a failure report. *)
  match Sys.getenv_opt "CHAOS_REPRO" with
  | Some spec -> (
      match String.split_on_char ':' (String.trim spec) with
      | [ p; f ] ->
          run_case ~plan_seed:(Int64.of_string p)
            ~fault_seed:(Int64.of_string f) ()
      | _ -> Alcotest.fail "CHAOS_REPRO must be <plan_seed>:<fault_seed>")
  | None ->
      let n = cases () in
      for i = 0 to n - 1 do
        run_case
          ~plan_seed:(Int64.of_int ((1000003 * i) + 17))
          ~fault_seed:(Int64.of_int ((7919 * i) + 23))
          ()
      done

(* Batching is on by default, so the matrix above exercises fused loops
   and batch-fed producers throughout.  This slice re-runs a quarter of
   it with the vectorized path off, so the record-at-a-time protocol
   keeps its own chaos coverage too. *)
let test_matrix_record_path () =
  let n = max 1 (cases () / 4) in
  for i = 0 to n - 1 do
    run_case ~batch_size:0
      ~plan_seed:(Int64.of_int ((1000003 * i) + 17))
      ~fault_seed:(Int64.of_int ((7919 * i) + 23))
      ()
  done

(* Satellite: faults fire INSIDE fused loops.  A fused
   scan→filter→project chain feeding an exchange consults the generic
   [Operator] site per record from a tap stage in the tight loop, the
   [Producer] site per record in the batch drive loop, and the storage
   sites from the heap cursor's page steps; a counted [Fail] at any of
   them must surface at the consumer as exactly one well-typed
   [Query_failed], and leak nothing.  The same holds with a hash join in
   the loop (the scan probes it, a second scan builds it), and after an
   early close mid-probe. *)
let fused_table () =
  (* A pool far smaller than the table: the fused scan cannot run from
     cache, so its page steps really consult the device sites. *)
  let env = Env.create ~frames:8 ~page_size:512 () in
  let file =
    Env.create_table env ~name:"chaos_t"
      ~schema:
        (Volcano_tuple.Schema.of_names
           [ ("a", Volcano_tuple.Value.Tint); ("b", Volcano_tuple.Value.Tint) ])
  in
  for i = 0 to 999 do
    ignore
      (Volcano_storage.Heap_file.insert file
         (Bytes.to_string
            (Volcano_tuple.Serial.encode (Tuple.of_ints [ i; i mod 9 ]))))
  done;
  env

let fused_chain =
  Plan.Project_cols
    {
      cols = [ 1; 0 ];
      input =
        Plan.Filter
          {
            pred =
              Volcano_tuple.Expr.Cmp
                ( Volcano_tuple.Expr.Ne,
                  Volcano_tuple.Expr.Col 1,
                  Volcano_tuple.Expr.Const (Volcano_tuple.Value.Int 4) );
            mode = `Compiled;
            input = Plan.Scan_table "chaos_t";
          };
    }

let fused_join =
  Plan.Match
    {
      algo = Plan.Hash_based;
      kind = Volcano_ops.Match_op.Join;
      left_key = [ 0 ];
      right_key = [ 1 ];
      left = fused_chain;
      right =
        Plan.Filter
          {
            pred =
              Volcano_tuple.Expr.Cmp
                ( Volcano_tuple.Expr.Lt,
                  Volcano_tuple.Expr.Col 0,
                  Volcano_tuple.Expr.Const (Volcano_tuple.Value.Int 18) );
            mode = `Compiled;
            input = Plan.Scan_table "chaos_t";
          };
    }

let under_exchange input =
  Plan.Exchange { cfg = Exchange.config ~degree:2 ~packet_size:7 (); input }

let assert_fused_quiescent ~what env ~unjoined0 ~live0 =
  Bufpool.assert_quiescent ~what (Env.buffer env);
  Alcotest.(check int)
    "no unjoined tasks" unjoined0
    (Exchange.unjoined_tasks ());
  Alcotest.(check int) "no live tasks" live0 (Exchange.live_tasks ());
  Sched.assert_quiescent ~what (Sched.default ())

let test_faults_inside_fused_loops () =
  List.iter
    (fun (shape, input) ->
      List.iter
        (fun (site, hit) ->
          let env = fused_table () in
          let plan = under_exchange input in
          let unjoined0 = Exchange.unjoined_tasks () in
          let live0 = Exchange.live_tasks () in
          Env.set_faults env
            (Injector.make
               {
                 Fault.seed = 7L;
                 rules =
                   [
                     { Fault.site; trigger = Fault.At_hit hit; action = Fault.Fail };
                   ];
               });
          (match
             run_with_timeout ~seconds:timeout_seconds (fun () ->
                 Runner.run env plan)
           with
          | Rows _ ->
              Alcotest.failf "%s: fault at %s never fired in the fused pipeline"
                shape (Fault.site_name site)
          | Raised (Exchange.Query_failed _) -> ()
          | Raised exn ->
              Alcotest.failf "%s: fault at %s surfaced as %s, not Query_failed"
                shape (Fault.site_name site) (Printexc.to_string exn)
          | Timeout ->
              Alcotest.failf "%s: fault at %s hung the query" shape
                (Fault.site_name site));
          Env.clear_faults env;
          assert_fused_quiescent ~what:("fused-loop fault, " ^ shape) env
            ~unjoined0 ~live0)
        [
          (Fault.Operator, 137);
          (Fault.Producer 0, 137);
          (Fault.Device_read, 5);
          (Fault.Bufpool_fix, 5);
          (Fault.Port_send, 3);
        ])
    [ ("chain", fused_chain); ("join", fused_join) ];
  (* Early close mid-probe, serial and under an exchange: a few rows,
     then close — the probe scan's pinned page, the producers and their
     ports must all be released. *)
  List.iter
    (fun (shape, plan) ->
      let env = fused_table () in
      let unjoined0 = Exchange.unjoined_tasks () in
      let live0 = Exchange.live_tasks () in
      let iter = Compile.compile env plan in
      Iterator.open_ iter;
      for _ = 1 to 5 do
        if Option.is_none (Iterator.next iter) then
          Alcotest.failf "%s: expected a row before the early close" shape
      done;
      Iterator.close iter;
      assert_fused_quiescent ~what:("early close mid-probe, " ^ shape) env
        ~unjoined0 ~live0)
    [ ("serial join", fused_join); ("join under exchange", under_exchange fused_join) ]

(* Satellite: analyzer-accepted plans under pure-delay chaos never hang
   AND never lose a record — delays perturb every interleaving the flow
   control and shutdown paths can reach, but fail nothing. *)
let delay_plan seed =
  {
    Fault.seed;
    rules =
      [
        {
          Fault.site = Fault.Port_send;
          trigger = Fault.With_prob 0.05;
          action = Fault.Delay 0.0005;
        };
        {
          Fault.site = Fault.Port_receive;
          trigger = Fault.With_prob 0.05;
          action = Fault.Delay 0.0005;
        };
        {
          Fault.site = Fault.Operator;
          trigger = Fault.With_prob 0.01;
          action = Fault.Delay 0.001;
        };
      ];
  }

let test_delays_preserve_results () =
  for i = 0 to 9 do
    let plan_seed = Int64.of_int ((104729 * i) + 5) in
    let rng = Rng.create plan_seed in
    let depth = 1 + Rng.int rng 3 in
    let env = Env.create ~frames:128 ~page_size:512 () in
    Env.set_sort_run_capacity env (8 + Rng.int rng 56);
    let serial = Test_random_plans.random_plan rng depth in
    let decorated = Test_random_plans.decorate rng serial in
    let oracle = Test_random_plans.sorted_run env serial in
    Env.set_faults env (Injector.make (delay_plan plan_seed));
    (match
       run_with_timeout ~seconds:timeout_seconds (fun () ->
           List.sort Tuple.compare (Runner.run env decorated))
     with
    | Rows rows ->
        if rows <> oracle then
          Alcotest.failf "delays changed the result (plan_seed=%Ld)" plan_seed
    | Raised exn ->
        Alcotest.failf "delay-only run failed (plan_seed=%Ld): %s" plan_seed
          (Printexc.to_string exn)
    | Timeout ->
        Alcotest.failf "delay-only run hung (plan_seed=%Ld)" plan_seed);
    Env.clear_faults env;
    Bufpool.assert_quiescent ~what:"delay case" (Env.buffer env);
    Sched.assert_quiescent ~what:"delay case" (Sched.default ())
  done

(* Satellite: early close under injected delays.  Open a decorated plan
   with port delays active, pull a few records, and walk away — the
   cancellation must still chain through every port, join every domain,
   and unfix every page. *)
let test_early_close_under_delays () =
  for i = 0 to 9 do
    let plan_seed = Int64.of_int ((15485863 * i) + 11) in
    let rng = Rng.create plan_seed in
    let depth = 1 + Rng.int rng 3 in
    let env = Env.create ~frames:128 ~page_size:512 () in
    Env.set_sort_run_capacity env (8 + Rng.int rng 56);
    let serial = Test_random_plans.random_plan rng depth in
    let decorated = Test_random_plans.decorate rng serial in
    let unjoined0 = Exchange.unjoined_tasks () in
    let live0 = Exchange.live_tasks () in
    Env.set_faults env (Injector.make (delay_plan plan_seed));
    (match
       run_with_timeout ~seconds:timeout_seconds (fun () ->
           let iterator = Compile.compile env decorated in
           Iterator.open_ iterator;
           (try
              for _ = 1 to 3 do
                match Iterator.next iterator with
                | Some _ -> ()
                | None -> raise Exit
              done
            with Exit -> ());
           Iterator.close iterator;
           [])
     with
    | Rows _ -> ()
    | Raised exn ->
        Alcotest.failf "early close under delays failed (plan_seed=%Ld): %s"
          plan_seed (Printexc.to_string exn)
    | Timeout ->
        Alcotest.failf "early close under delays hung (plan_seed=%Ld)"
          plan_seed);
    Env.clear_faults env;
    Bufpool.assert_quiescent ~what:"early close under delays" (Env.buffer env);
    Alcotest.(check int)
      "no unjoined tasks" unjoined0
      (Exchange.unjoined_tasks ());
    Alcotest.(check int) "no live tasks" live0 (Exchange.live_tasks ());
    Sched.assert_quiescent ~what:"early close under delays"
      (Sched.default ())
  done

(* Satellite: a slice of the chaos matrix with observability on.  The
   instrumented run must behave exactly like the bare one: fault-free it
   matches the oracle with balanced spans; under injection it completes
   with the oracle rows or raises one acceptable failure, and leaks
   nothing.  Span balance is NOT asserted under injection — cancellation
   legitimately runs self-cleaning closes whose open never happened. *)
let test_obs_matrix () =
  for i = 0 to 24 do
    let plan_seed = Int64.of_int ((1000003 * i) + 17) in
    let fault_seed = Int64.of_int ((7919 * i) + 23) in
    let rng = Rng.create plan_seed in
    let depth = 1 + Rng.int rng 3 in
    let env = Env.create ~frames:128 ~page_size:512 () in
    Env.set_sort_run_capacity env (8 + Rng.int rng 56);
    let serial = Test_random_plans.random_plan rng depth in
    let decorated = Test_random_plans.decorate rng serial in
    if Test_random_plans.accepted env decorated then begin
      let unjoined0 = Exchange.unjoined_tasks () in
      let live0 = Exchange.live_tasks () in
      let oracle = Test_random_plans.sorted_run env serial in
      (* Fault-free, instrumented: observability must be invisible. *)
      let sink = Obs.create () in
      let obs = Compile.observe sink decorated in
      let clean =
        List.sort Tuple.compare
          (Iterator.to_list (Compile.compile ~obs env decorated))
      in
      if clean <> oracle then
        Alcotest.failf "instrumented run diverges from oracle (plan_seed=%Ld)"
          plan_seed;
      List.iter
        (fun n ->
          if Obs.Node.opens n <> Obs.Node.closes n then
            Alcotest.failf
              "unbalanced spans on %S: %d opens, %d closes (plan_seed=%Ld)"
              (Obs.Node.label n) (Obs.Node.opens n) (Obs.Node.closes n)
              plan_seed)
        (Obs.nodes sink);
      (* Under injection, instrumented. *)
      Env.set_faults env (Injector.make (Fault.random_plan ~seed:fault_seed));
      let sink = Obs.create () in
      let obs = Compile.observe sink decorated in
      (match
         run_with_timeout ~seconds:timeout_seconds (fun () ->
             List.sort Tuple.compare
               (Iterator.to_list (Compile.compile ~obs env decorated)))
       with
      | Rows rows ->
          if rows <> oracle then
            Alcotest.failf
              "instrumented faulty run completed with wrong rows \
               (plan_seed=%Ld, fault_seed=%Ld)"
              plan_seed fault_seed
      | Raised exn ->
          if not (acceptable_failure exn) then
            Alcotest.failf
              "unexpected failure type under obs (plan_seed=%Ld, \
               fault_seed=%Ld): %s"
              plan_seed fault_seed (Printexc.to_string exn)
      | Timeout ->
          Alcotest.failf "instrumented faulty run hung (plan_seed=%Ld)"
            plan_seed);
      Env.clear_faults env;
      Bufpool.assert_quiescent ~what:"obs chaos case" (Env.buffer env);
      Alcotest.(check int)
        "no unjoined tasks" unjoined0
        (Exchange.unjoined_tasks ());
      Alcotest.(check int) "no live tasks" live0 (Exchange.live_tasks ());
      Sched.assert_quiescent ~what:"obs chaos case" (Sched.default ())
    end
  done

let suite =
  [
    Alcotest.test_case "seeded (plan, fault-plan) matrix" `Slow test_matrix;
    Alcotest.test_case "matrix slice with batching off" `Slow
      test_matrix_record_path;
    Alcotest.test_case "faults fire inside fused loops" `Slow
      test_faults_inside_fused_loops;
    Alcotest.test_case "chaos matrix with observability on" `Slow
      test_obs_matrix;
    Alcotest.test_case "delay-only chaos preserves results" `Slow
      test_delays_preserve_results;
    Alcotest.test_case "early close under injected delays" `Slow
      test_early_close_under_delays;
  ]
