(* The tests' compile-and-drain path.  Product code goes through
   {!Volcano_plan.Session}; tests that build their own [Env] (registered
   tables, fault injectors, tuned knobs) drain plans directly so the
   environment under test is exactly the one they configured. *)

let run ?check env plan =
  Volcano.Iterator.to_list (Volcano_plan.Compile.compile ?check env plan)

let count ?check env plan =
  Volcano.Iterator.consume (Volcano_plan.Compile.compile ?check env plan)

(* One QCheck seed per run.  Left alone, QCheck_alcotest draws a fresh
   seed on every run unless QCHECK_SEED is set, so a property's verdict
   and its run time changed from run to run.  Every property here runs
   on [default_seed] instead, or on QCHECK_SEED when that is set to an
   integer; the main test process prints the seed in use before the
   suites run ([announce_seed]), and each property starts from a fresh
   state of it. *)
let default_seed = 1

let seed =
  Option.value ~default:default_seed
    (Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt)

let announce_seed () =
  Printf.printf "qcheck seed: %d (QCHECK_SEED overrides)\n%!" seed

let qcheck ?long test =
  QCheck_alcotest.to_alcotest ?long ~rand:(Random.State.make [| seed |]) test

(* The scheduler differentials' second interleaving: a pool wider than
   most generated plans' task count, so most producers get a domain of
   their own where the default pool multiplexes them onto a few.  It
   lives for one Alcotest case and is shut down when the case ends: an
   idle pool left alive still joins every stop-the-world minor GC and
   slows the rest of the suite. *)
let with_wide_pool f =
  let wide = Volcano_sched.Sched.create ~workers:8 () in
  Fun.protect
    ~finally:(fun () -> Volcano_sched.Sched.shutdown wide)
    (fun () -> f wide)

(* A QCheck property over the wide pool as one Alcotest case: the whole
   run shares one pool, since a pool per QCheck case pays a pool start
   per plan. *)
let wide_pool_property ?long ~name prop =
  ( name,
    `Quick,
    fun () ->
      with_wide_pool (fun wide ->
          let _, _, run =
            qcheck ?long (prop ~name wide)
          in
          run ()) )
