(* Directed regressions for the failure semantics: poisoned-port wakeup,
   sibling cancellation, early close of deep flow-controlled pipelines,
   fault injection at the storage sites, and interchange member failure.
   The randomized counterpart lives in Chaos. *)

module Fault = Volcano_fault
module Injector = Volcano_fault.Injector
module Iterator = Volcano.Iterator
module Exchange = Volcano.Exchange
module Group = Volcano.Group
module Port = Volcano.Port
module Bufpool = Volcano_storage.Bufpool
module Device = Volcano_storage.Device
module Plan = Volcano_plan.Plan
module Env = Volcano_plan.Env
module Compile = Volcano_plan.Compile
module Tuple = Volcano_tuple.Tuple
module Sched = Volcano_sched.Sched

let check = Alcotest.check

(* Every test asserts the books balance afterwards: a failed query must
   leave no producer task running or unjoined, and no fiber suspended. *)
let with_domain_accounting f =
  let unjoined0 = Exchange.unjoined_tasks () in
  let live0 = Exchange.live_tasks () in
  f ();
  check Alcotest.int "no unjoined tasks" unjoined0
    (Exchange.unjoined_tasks ());
  check Alcotest.int "no live tasks" live0 (Exchange.live_tasks ());
  Sched.assert_quiescent ~what:"fault case" (Sched.default ())

(* --- injector ------------------------------------------------------- *)

let test_injector_deterministic () =
  (* Two injectors from one plan fire identically, hit for hit. *)
  let plan = Fault.random_plan ~seed:42L in
  let observe () =
    let inj = Injector.make plan in
    let trace = Buffer.create 64 in
    for i = 0 to 999 do
      List.iter
        (fun site ->
          match Injector.hit inj site with
          | () -> ()
          | exception Fault.Injected { hit; _ } ->
              Buffer.add_string trace (Printf.sprintf "%d:%d;" i hit))
        [ Fault.Device_read; Fault.Port_send; Fault.Producer 0 ]
    done;
    (Buffer.contents trace, Injector.fired inj, Injector.hits inj)
  in
  let a = observe () and b = observe () in
  check
    Alcotest.(triple string int int)
    "identical decision traces" a b

let test_injector_at_hit () =
  let plan =
    {
      Fault.seed = 7L;
      rules =
        [
          {
            Fault.site = Fault.Bufpool_fix;
            trigger = Fault.At_hit 3;
            action = Fault.Fail;
          };
        ];
    }
  in
  let inj = Injector.make plan in
  Injector.hit inj Fault.Bufpool_fix;
  Injector.hit inj Fault.Bufpool_fix;
  Injector.hit inj Fault.Device_read (* different site: not counted *);
  (match Injector.hit inj Fault.Bufpool_fix with
  | () -> Alcotest.fail "expected an injected failure on the third hit"
  | exception Fault.Injected { site = Fault.Bufpool_fix; hit = 3 } -> ()
  | exception exn -> raise exn);
  (* One-shot: the fourth hit passes. *)
  Injector.hit inj Fault.Bufpool_fix;
  check Alcotest.int "fired once" 1 (Injector.fired inj)

(* --- poisoned-port wakeup ------------------------------------------- *)

exception Boom

(* A producer that dies before sending anything must wake a consumer that
   is already blocked in receive — immediately, not after a timeout — and
   surface as Query_failed with the original exception. *)
let test_poisoned_port_wakes_consumer () =
  with_domain_accounting (fun () ->
      let cfg = Exchange.config ~degree:1 ~flow_slack:(Some 1) () in
      let iterator =
        Exchange.iterator cfg ~group:(Group.solo ()) ~input:(fun _group ->
            Iterator.make
              ~open_:(fun () -> ())
              ~next:(fun () ->
                (* Let the consumer reach its blocking receive first. *)
                Unix.sleepf 0.05;
                raise Boom)
              ~close:(fun () -> ()))
      in
      Iterator.open_ iterator;
      (match Iterator.next iterator with
      | _ -> Alcotest.fail "expected Query_failed"
      | exception Exchange.Query_failed { origin = Boom; site } ->
          check Alcotest.string "site" "producer" site);
      Iterator.close iterator)

(* A failing producer cancels its siblings: with degree 3 and effectively
   unbounded sibling inputs, the query still fails promptly and every
   domain is joined. *)
let test_sibling_cancellation () =
  with_domain_accounting (fun () ->
      let cfg =
        Exchange.config ~degree:3 ~packet_size:3 ~flow_slack:(Some 2) ()
      in
      let iterator =
        Exchange.iterator cfg ~group:(Group.solo ()) ~input:(fun group ->
            let rank = Group.rank group in
            let count = ref 0 in
            Iterator.make
              ~open_:(fun () -> ())
              ~next:(fun () ->
                incr count;
                if rank = 1 && !count > 5 then raise Boom
                else Some (Tuple.of_ints [ rank; !count ]))
              ~close:(fun () -> ()))
      in
      (match Iterator.consume iterator with
      | _ -> Alcotest.fail "expected Query_failed"
      | exception Exchange.Query_failed { origin = Boom; _ } -> ()))

(* The producer's subtree is closed when it dies: its close must run so
   resources (here: a flag; in real plans, buffer fixes) are released. *)
let test_failed_producer_subtree_closed () =
  with_domain_accounting (fun () ->
      let closed = Atomic.make false in
      let cfg = Exchange.config ~degree:1 () in
      let iterator =
        Exchange.iterator cfg ~group:(Group.solo ()) ~input:(fun _group ->
            Iterator.make
              ~open_:(fun () -> ())
              ~next:(fun () -> raise Boom)
              ~close:(fun () -> Atomic.set closed true))
      in
      (match Iterator.consume iterator with
      | _ -> Alcotest.fail "expected Query_failed"
      | exception Exchange.Query_failed _ -> ());
      check Alcotest.bool "producer subtree closed" true (Atomic.get closed))

(* A consumer-side failure (injected at the receive site) must cancel the
   producers rather than leave them pumping into a dead port. *)
let test_consumer_failure_cancels_producers () =
  with_domain_accounting (fun () ->
      let faults =
        Injector.make
          {
            Fault.seed = 1L;
            rules =
              [
                {
                  Fault.site = Fault.Port_receive;
                  trigger = Fault.At_hit 2;
                  action = Fault.Fail;
                };
              ];
          }
      in
      let scope = Exchange.Scope.create () in
      let cfg =
        Exchange.config ~degree:2 ~packet_size:2 ~flow_slack:(Some 1) ()
      in
      let iterator =
        Exchange.iterator ~faults ~scope cfg ~group:(Group.solo ())
          ~input:(fun group ->
            let rank = Group.rank group in
            Iterator.generate ~count:100_000 ~f:(fun i ->
                Tuple.of_ints [ rank; i ]))
      in
      (match Iterator.consume iterator with
      | _ -> Alcotest.fail "expected Query_failed"
      | exception
          Exchange.Query_failed
            { origin = Fault.Injected { site = Fault.Port_receive; _ }; site }
        ->
          check Alcotest.string "site" "port-receive" site))

(* Nested exchange: the failure of an inner producer crosses both process
   boundaries and still arrives as a single Query_failed carrying the
   innermost site. *)
let test_nested_failure_single_wrap () =
  with_domain_accounting (fun () ->
      let inner_id = Exchange.fresh_id () in
      let cfg = Exchange.config ~degree:2 ~packet_size:2 () in
      let iterator =
        Exchange.iterator cfg ~group:(Group.solo ()) ~input:(fun group ->
            Exchange.iterator ~id:inner_id cfg ~group ~input:(fun igroup ->
                let irank = Group.rank igroup in
                Iterator.make
                  ~open_:(fun () -> ())
                  ~next:(fun () ->
                    if irank = 0 then raise Boom
                    else Some (Tuple.of_ints [ irank ]))
                  ~close:(fun () -> ())))
      in
      (match Iterator.consume iterator with
      | _ -> Alcotest.fail "expected Query_failed"
      | exception Exchange.Query_failed { origin = Boom; site } ->
          (* wrapped exactly once: origin is the bare exception and the
             site is the innermost one, not "producer(producer(...))" *)
          check Alcotest.string "innermost site" "producer" site))

(* --- early close ----------------------------------------------------- *)

(* Early-closing a deep flow-controlled pipeline: producers at every level
   are blocked on tiny flow-control slack when the consumer walks away
   after three records.  The cancellation must chain through every level's
   port (the Scope mechanism) and release the flow semaphores, or the
   close would deadlock in join. *)
let test_early_close_deep_flow_controlled_pipeline () =
  with_domain_accounting (fun () ->
      let env = Env.create ~frames:64 ~page_size:512 () in
      let cfg () =
        Exchange.config ~degree:2 ~packet_size:1 ~flow_slack:(Some 1) ()
      in
      let leaf =
        Plan.Generate_slice
          {
            arity = 1;
            count = 1_000_000;
            gen = (fun i -> Tuple.of_ints [ i ]);
          }
      in
      let plan =
        Plan.Exchange
          {
            cfg = cfg ();
            input =
              Plan.Exchange
                {
                  cfg = cfg ();
                  input = Plan.Exchange { cfg = cfg (); input = leaf };
                };
          }
      in
      let iterator = Compile.compile env plan in
      Iterator.open_ iterator;
      for _ = 1 to 3 do
        match Iterator.next iterator with
        | Some _ -> ()
        | None -> Alcotest.fail "stream ended early"
      done;
      Iterator.close iterator;
      Bufpool.assert_quiescent ~what:"early close" (Env.buffer env))

(* --- storage-site injection ----------------------------------------- *)

let sort_plan () =
  Plan.Sort
    {
      key = [ (0, Volcano_tuple.Support.Asc) ];
      input =
        Plan.Generate_slice
          {
            arity = 3;
            count = 400;
            gen = (fun i -> Tuple.of_ints [ 997 * i mod 400; i; i * i ]);
          };
    }

(* A denied buffer fix while an external sort spills must fail the query
   cleanly: no leaked fixes, workspace reusable afterwards. *)
let test_bufpool_fix_denial_during_spill () =
  with_domain_accounting (fun () ->
      let env = Env.create ~frames:64 ~page_size:512 () in
      Env.set_sort_run_capacity env 32;
      Env.set_faults env
        (Injector.make
           {
             Fault.seed = 11L;
             rules =
               [
                 {
                   Fault.site = Fault.Bufpool_fix;
                   trigger = Fault.At_hit 5;
                   action = Fault.Fail;
                 };
               ];
           });
      (match Runner.run env (sort_plan ()) with
      | _ -> Alcotest.fail "expected an injected failure"
      | exception Fault.Injected { site = Fault.Bufpool_fix; _ } -> ()
      | exception Exchange.Query_failed _ -> ());
      Env.clear_faults env;
      Bufpool.assert_quiescent ~what:"fix denial" (Env.buffer env);
      (* The environment still works after the failure. *)
      let rows = Runner.run env (sort_plan ()) in
      check Alcotest.int "reusable after failure" 400 (List.length rows))

(* A device write error while spilling, inside an exchange producer, must
   arrive as Query_failed at the device-write site. *)
let test_device_fault_during_parallel_spill () =
  with_domain_accounting (fun () ->
      let env = Env.create ~frames:64 ~page_size:512 () in
      Env.set_sort_run_capacity env 16;
      Env.set_faults env
        (Injector.make
           {
             Fault.seed = 13L;
             rules =
               [
                 {
                   Fault.site = Fault.Device_write;
                   trigger = Fault.At_hit 2;
                   action = Fault.Fail;
                 };
               ];
           });
      let plan =
        Plan.Exchange
          { cfg = Exchange.config ~degree:1 (); input = sort_plan () }
      in
      (match Runner.run env plan with
      | _ -> Alcotest.fail "expected Query_failed"
      | exception
          Exchange.Query_failed
            { origin = Fault.Injected { site = Fault.Device_write; _ }; site }
        ->
          check Alcotest.string "site" "device-write" site);
      Env.clear_faults env;
      Bufpool.assert_quiescent ~what:"device fault" (Env.buffer env))

(* Producer-site injection through the compiled plan path: the rule names
   a producer rank; the consumer sees that site's name. *)
let test_producer_site_via_plan () =
  with_domain_accounting (fun () ->
      let env = Env.create ~frames:64 ~page_size:512 () in
      Env.set_faults env
        (Injector.make
           {
             Fault.seed = 17L;
             rules =
               [
                 {
                   Fault.site = Fault.Producer 1;
                   trigger = Fault.At_hit 10;
                   action = Fault.Fail;
                 };
               ];
           });
      let plan =
        Plan.Exchange
          {
            cfg = Exchange.config ~degree:2 ~packet_size:3 ();
            input =
              Plan.Generate_slice
                { arity = 1; count = 500; gen = (fun i -> Tuple.of_ints [ i ]) };
          }
      in
      (match Runner.run env plan with
      | _ -> Alcotest.fail "expected Query_failed"
      | exception Exchange.Query_failed { site; _ } ->
          check Alcotest.string "site" "producer-1" site);
      Env.clear_faults env;
      Bufpool.assert_quiescent ~what:"producer site" (Env.buffer env))

(* --- interchange member failure -------------------------------------- *)

(* An interchange member whose input dies must poison the shared port:
   its peers block on each other's packets and would otherwise hang. *)
let test_interchange_member_failure () =
  with_domain_accounting (fun () ->
      let inner_id = Exchange.fresh_id () in
      let outer_cfg = Exchange.config ~degree:2 ~packet_size:2 () in
      let inner_cfg =
        Exchange.config ~degree:2 ~packet_size:2
          ~partition:(Exchange.Hash_on [ 0 ]) ()
      in
      let iterator =
        Exchange.iterator outer_cfg ~group:(Group.solo ())
          ~input:(fun group ->
            let rank = Group.rank group in
            (* Rank 0's input must be finite: while packets keep arriving
               an interchange member only relays them and never pulls its
               own input, so an unbounded healthy peer would postpone the
               sick member's failure forever. *)
            let remaining = ref 100 in
            let own =
              Iterator.make
                ~open_:(fun () -> ())
                ~next:(fun () ->
                  if rank = 1 then raise Boom
                  else if !remaining = 0 then None
                  else begin
                    decr remaining;
                    Some (Tuple.of_ints [ !remaining ])
                  end)
                ~close:(fun () -> ())
            in
            Exchange.interchange ~id:inner_id inner_cfg ~group ~input:own)
      in
      (match Iterator.consume iterator with
      | _ -> Alcotest.fail "expected Query_failed"
      | exception Exchange.Query_failed { origin = Boom; _ } -> ()))

(* --- one consumer core: every face meets the contract ----------------- *)

(* The merged exchange, the keep-separate streams of a merge network, and
   the no-fork interchange (under an outer exchange) share one consumer
   core.  A consumer-side fault under each — a failed port receive, a
   failed park — must surface as exactly one [Query_failed] carrying the
   fault's site, never as a raw injection, and leave the buffer pool, the
   scheduler and the producer ledger quiescent.  The consumer parks (and
   reaches the park site) when it outruns its producers, whether it runs
   on a pool fiber or on the test's own domain; the latter run slows
   every send so the consumer is sure to wait. *)
let consumer_face_plans =
  let cfg ?partition () =
    Exchange.config ~degree:2 ~packet_size:4 ~flow_slack:(Some 1) ?partition
      ()
  in
  let scan = Plan.Scan_table "faces_t" in
  let key = [ (0, Volcano_tuple.Support.Asc) ] in
  [
    ("Exchange.iterator", Plan.Exchange { cfg = cfg (); input = scan });
    ( "Merge.exchange_merge",
      Plan.Exchange_merge
        { cfg = cfg (); key; input = Plan.Sort { key; input = scan } } );
    ( "Exchange.interchange",
      Plan.Exchange
        {
          cfg = cfg ();
          input =
            Plan.Interchange
              { cfg = cfg ~partition:(Exchange.Hash_on [ 0 ]) (); input = scan };
        } );
  ]

let faces_env () =
  let env = Env.create ~frames:16 ~page_size:512 () in
  let file =
    Env.create_table env ~name:"faces_t"
      ~schema:
        (Volcano_tuple.Schema.of_names
           [ ("a", Volcano_tuple.Value.Tint); ("b", Volcano_tuple.Value.Tint) ])
  in
  for i = 0 to 1999 do
    ignore
      (Volcano_storage.Heap_file.insert file
         (Bytes.to_string
            (Volcano_tuple.Serial.encode (Tuple.of_ints [ 7 * i mod 2000; i ]))))
  done;
  env

let test_consumer_faces_fail_once () =
  let fail_at site hit =
    { Fault.site; trigger = Fault.At_hit hit; action = Fault.Fail }
  in
  let slow_sends =
    {
      Fault.site = Fault.Port_send;
      trigger = Fault.With_prob 1.0;
      action = Fault.Delay 0.001;
    }
  in
  let in_fiber env plan =
    match
      Sched.await (Sched.fork (Env.sched env) (fun () -> Runner.run env plan))
    with
    | Ok rows -> rows
    | Error exn -> raise exn
  in
  (* Compile and drain right here: the consumer is the test's domain. *)
  let here env plan = Runner.run env plan in
  List.iter
    (fun (site, rules, (consumer, run)) ->
      List.iter
        (fun (face, plan) ->
          let what =
            Printf.sprintf "%s under %s on %s" face (Fault.site_name site)
              consumer
          in
          with_domain_accounting (fun () ->
              let env = faces_env () in
              Env.set_faults env (Injector.make { Fault.seed = 5L; rules });
              (match
                 Test_chaos.run_with_timeout ~seconds:20.0 (fun () ->
                     run env plan)
               with
              | Test_chaos.Raised
                  (Exchange.Query_failed
                     { site = reported; origin = Fault.Injected _ }) ->
                  check Alcotest.string (what ^ ": site")
                    (Fault.site_name site) reported
              | Test_chaos.Raised exn ->
                  Alcotest.failf "%s: surfaced as %s, not one Query_failed"
                    what (Printexc.to_string exn)
              | Test_chaos.Rows _ -> Alcotest.failf "%s: fault never fired" what
              | Test_chaos.Timeout -> Alcotest.failf "%s: hung" what);
              Env.clear_faults env;
              Bufpool.assert_quiescent ~what (Env.buffer env)))
        consumer_face_plans)
    [
      ( Fault.Port_receive,
        [ fail_at Fault.Port_receive 2 ],
        ("a pool fiber", in_fiber) );
      ( Fault.Sched_park,
        [ fail_at Fault.Sched_park 1 ],
        ("a pool fiber", in_fiber) );
      ( Fault.Sched_park,
        [ fail_at Fault.Sched_park 1; slow_sends ],
        ("the test's domain", here) );
    ]

let suite =
  [
    Alcotest.test_case "injector determinism" `Quick
      test_injector_deterministic;
    Alcotest.test_case "injector at-hit trigger" `Quick test_injector_at_hit;
    Alcotest.test_case "poisoned port wakes blocked consumer" `Quick
      test_poisoned_port_wakes_consumer;
    Alcotest.test_case "sibling producers cancelled" `Quick
      test_sibling_cancellation;
    Alcotest.test_case "failed producer subtree closed" `Quick
      test_failed_producer_subtree_closed;
    Alcotest.test_case "consumer failure cancels producers" `Quick
      test_consumer_failure_cancels_producers;
    Alcotest.test_case "nested failure wrapped once" `Quick
      test_nested_failure_single_wrap;
    Alcotest.test_case "early close of deep flow-controlled pipeline" `Quick
      test_early_close_deep_flow_controlled_pipeline;
    Alcotest.test_case "bufpool fix denial during spill" `Quick
      test_bufpool_fix_denial_during_spill;
    Alcotest.test_case "device fault during parallel spill" `Quick
      test_device_fault_during_parallel_spill;
    Alcotest.test_case "producer site via plan" `Quick
      test_producer_site_via_plan;
    Alcotest.test_case "interchange member failure" `Quick
      test_interchange_member_failure;
    Alcotest.test_case "every consumer face fails once" `Quick
      test_consumer_faces_fail_once;
  ]
