(* Each case's deadline in the tier-1 run.  The slowest case, the sql
   suite's 1000-seed optimizer differential, measured 4.9 s on a 2-core
   host; 60 s gives it twelve times that on a loaded host, and a hung
   case fails within a minute.  The chaos matrix grows with CHAOS_SEEDS,
   so its cases' deadline grows with it. *)
let deadline = function
  | "chaos" ->
      60.0
      *. Float.max 1.0
           (float_of_int (Test_chaos.cases ())
           /. float_of_int Test_chaos.default_cases)
  | _ -> 60.0

(* The net suite re-executes this binary as its worker processes;
   dispatch before Alcotest ever parses argv. *)
let () =
  if Array.length Sys.argv >= 3 && Sys.argv.(1) = "net-worker" then
    Test_net.worker_main ~socket:Sys.argv.(2)
  else if Array.length Sys.argv >= 3 && Sys.argv.(1) = "net-rogue-worker" then
    Test_net.rogue_worker_main ~socket:Sys.argv.(2)
  else if Array.length Sys.argv >= 3 && Sys.argv.(1) = "net-stall-worker" then
    Test_net.stall_worker_main ~socket:Sys.argv.(2)
  else if Array.length Sys.argv >= 3 && Sys.argv.(1) = "shard-worker" then
    Test_shard.worker_main ~socket:Sys.argv.(2)
  else if Array.length Sys.argv >= 2 && Sys.argv.(1) = "long" then begin
    Runner.announce_seed ();
    let rest = Array.sub Sys.argv 2 (Array.length Sys.argv - 2) in
    Alcotest.run
      ~argv:(Array.append [| Sys.argv.(0) |] rest)
      "volcano-long"
      [ ("ops-long", Test_ops.long_suite) ]
  end
  else begin
    Runner.announce_seed ();
    Alcotest.run "volcano"
    @@ Watchdog.suites ~seconds:deadline
    [
      ("util", Test_util.suite);
      ("spsc", Test_spsc.suite);
      ("tuple", Test_tuple.suite);
      ("storage", Test_storage.suite);
      ("storage-extra", Test_storage_extra.suite);
      ("btree", Test_btree.suite);
      ("iterator", Test_iterator.suite);
      ("exchange", Test_exchange.suite);
      ("exchange-extra", Test_exchange_extra.suite);
      ("fault", Test_fault.suite);
      ("obs", Test_obs.suite);
      ("ops", Test_ops.suite);
      ("ops-extra", Test_ops_extra.suite);
      ("plan", Test_plan.suite);
      ("analysis", Test_analysis.suite);
      ("lint", Test_lint.suite);
      ("plan-extra", Test_plan_extra.suite);
      ("random-plans", Test_random_plans.suite);
      ("batch", Test_batch.suite);
      ("sched", Test_sched.suite);
      ("chaos", Test_chaos.suite);
      ("sim", Test_sim.suite);
      ("wisconsin", Test_wisconsin.suite);
      ("edges", Test_extra_edges.suite);
      ("sql", Test_sql.suite);
      ("net", Test_net.suite);
      ("shard", Test_shard.suite);
    ]
  end
