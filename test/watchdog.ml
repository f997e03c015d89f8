(* A deadline for every case of the tier-1 run, so a lost wake fails the
   run with the case named instead of hanging it.

   One systhread watches an atomic that holds the running case and its
   deadline.  A case past its deadline is printed (suite, index, name)
   on the stderr the process started with — Alcotest sends a case's own
   output to its log file, and this must reach the terminal — and the
   process ends at once with [Unix._exit], which runs no [at_exit]
   handler: such a handler (the launcher's idle-site release) can block
   on the very wait that hung.  A thread, not
   a domain: a domain would take part in every stop-the-world minor
   collection of the run, and a hung case blocks in a wait that gives
   the runtime lock up, so the thread gets to run. *)

type running = {
  suite : string;
  index : int;
  name : string;
  seconds : float;
  until : float;
}

let current : running option Atomic.t = Atomic.make None

let rec watch tty =
  Thread.delay 0.1;
  (match Atomic.get current with
  | Some r when Unix.gettimeofday () > r.until ->
      let msg =
        Printf.sprintf
          "\nwatchdog: %s %d %S ran past its %.0f-s deadline\n" r.suite
          r.index r.name r.seconds
      in
      ignore (Unix.write_substring tty msg 0 (String.length msg) : int);
      Unix._exit 3
  | _ -> ());
  watch tty

let guard ~suite ~index ~name ~seconds f () =
  let until = Unix.gettimeofday () +. seconds in
  Atomic.set current (Some { suite; index; name; seconds; until });
  Fun.protect ~finally:(fun () -> Atomic.set current None) f

(* [suites ~seconds tests] guards every case of [tests], each case of
   suite [s] with a deadline of [seconds s], and starts the watcher.
   Call it before [Alcotest.run], which redirects stderr. *)
let suites ~seconds tests =
  let tty = Unix.dup ~cloexec:true Unix.stderr in
  ignore (Thread.create watch tty : Thread.t);
  List.map
    (fun (suite, cases) ->
      ( suite,
        List.mapi
          (fun index (name, speed, f) ->
            (name, speed, guard ~suite ~index ~name ~seconds:(seconds suite) f))
          cases ))
    tests
