(* The tests' compile-and-drain path.  Product code goes through
   {!Volcano_plan.Session}; tests that build their own [Env] (registered
   tables, fault injectors, tuned knobs) drain plans directly so the
   environment under test is exactly the one they configured. *)

let run ?check env plan =
  Volcano.Iterator.to_list (Volcano_plan.Compile.compile ?check env plan)

let count ?check env plan =
  Volcano.Iterator.consume (Volcano_plan.Compile.compile ?check env plan)

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
            QCheck_alcotest.to_alcotest ?long (prop ~name wide)
          in
          run ()) )
