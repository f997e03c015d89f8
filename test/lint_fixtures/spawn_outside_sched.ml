(* conclint-fixture expect: CL004 *)
(* Concurrent work starts as a scheduler task: a domain (or a thread)
   made anywhere but the scheduler is one more way to start it. *)

let pump source sink =
  Domain.spawn (fun () ->
      match Source.pull source with
      | Some packet -> Sink.push sink packet
      | None -> ())

let serve_one handle conn = Thread.create (fun () -> handle conn) ()
