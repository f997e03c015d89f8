module Clock = Volcano_util.Clock

exception Cancelled
exception Deadline_exceeded

let () =
  Printexc.register_printer (function
    | Cancelled -> Some "Volcano_sched.Runtime.Cancelled"
    | Deadline_exceeded -> Some "Volcano_sched.Runtime.Deadline_exceeded"
    | _ -> None)

type status = Queued | Running | Finished | Failed | Aborted

(* Jobs are heterogeneous ('a differs), so the admission queue holds
   monomorphic entries of closures over their job. *)
type entry = {
  e_skip : unit -> bool; (* true: terminal already (cancelled while queued) *)
  e_launch : unit -> unit; (* fork the fiber; an execution slot is held *)
}

type t = {
  rt_sched : Sched.t;
  rt_max : int;
  lock : Mutex.t;
  mutable quiet : (unit -> unit) list; (* [close]'s wakers; fired at 0 *)
  pending : entry Queue.t;
  mutable running : int;
  mutable active : int; (* submitted jobs not yet fully retired *)
  mutable shut : bool;
}

type 'a job = {
  j_label : string;
  j_lock : Mutex.t;
  mutable j_state : [ `Queued | `Running | `Done of ('a, exn) result ];
  mutable j_cancel : exn option; (* first cancellation reason, if any *)
  j_on_cancel : exn -> unit;
  j_done : Sched.Event.t;
  j_deadline : Sched.timer option Atomic.t;
}

let create ?max_concurrent sched =
  let max_c = Option.value max_concurrent ~default:(Sched.workers sched) in
  if max_c < 1 then
    invalid_arg "Runtime.create: max_concurrent must be positive";
  {
    rt_sched = sched;
    rt_max = max_c;
    lock = Mutex.create ();
    quiet = [];
    pending = Queue.create ();
    running = 0;
    active = 0;
    shut = false;
  }

let sched t = t.rt_sched
let max_concurrent t = t.rt_max
let label j = j.j_label

let status j =
  Mutex.lock j.j_lock;
  let s =
    match (j.j_state, j.j_cancel) with
    | `Queued, _ -> Queued
    | `Running, _ -> Running
    | `Done (Ok _), _ -> Finished
    | `Done (Error _), Some _ -> Aborted
    | `Done (Error _), None -> Failed
  in
  Mutex.unlock j.j_lock;
  s

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

(* Under [t.lock]: once every job has retired, hand back [close]'s
   wakers for the caller to fire after unlocking. *)
let take_quiet t =
  if t.active > 0 then []
  else begin
    let wakers = t.quiet in
    t.quiet <- [];
    wakers
  end

(* Launch queued entries into free slots.  Lock order: [t.lock] above
   [j_lock] (e_skip peeks job state); forks happen outside both. *)
let pump t =
  Mutex.lock t.lock;
  let launches = ref [] in
  let retired = ref 0 in
  let rec fill () =
    if t.running < t.rt_max then
      match Queue.take_opt t.pending with
      | None -> ()
      | Some e ->
          if e.e_skip () then begin
            (* Cancelled while queued: terminal without ever holding a
               slot; retire it here. *)
            incr retired;
            fill ()
          end
          else begin
            t.running <- t.running + 1;
            launches := e.e_launch :: !launches;
            fill ()
          end
  in
  fill ();
  t.active <- t.active - !retired;
  let wakers = take_quiet t in
  Mutex.unlock t.lock;
  List.iter (fun wake -> wake ()) wakers;
  List.iter (fun launch -> launch ()) !launches

let release_slot t =
  Mutex.lock t.lock;
  t.running <- t.running - 1;
  t.active <- t.active - 1;
  let wakers = take_quiet t in
  Mutex.unlock t.lock;
  List.iter (fun wake -> wake ()) wakers;
  pump t

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)

(* A terminal job drops its deadline, so no timer outlives it. *)
let retire j =
  Option.iter Sched.cancel_timer (Atomic.get j.j_deadline);
  Sched.Event.fire j.j_done

let cancel_with j reason =
  Mutex.lock j.j_lock;
  let action =
    match (j.j_state, j.j_cancel) with
    | `Done _, _ | _, Some _ -> `Nothing
    | `Queued, None ->
        j.j_cancel <- Some reason;
        j.j_state <- `Done (Error reason);
        `Fire
    | `Running, None ->
        j.j_cancel <- Some reason;
        `Hook
  in
  Mutex.unlock j.j_lock;
  match action with
  | `Fire -> retire j
  | `Hook -> ( try j.j_on_cancel reason with _ -> ())
  | `Nothing -> ()

let cancel j = cancel_with j Cancelled

let run_job t j run () =
  let proceed =
    Mutex.lock j.j_lock;
    let p =
      match j.j_state with
      | `Queued -> (
          match j.j_cancel with
          | Some _ ->
              (* Cancelled between admission and fiber start. *)
              j.j_state <- `Done (Error (Option.get j.j_cancel));
              false
          | None ->
              j.j_state <- `Running;
              true)
      | `Running | `Done _ -> false
    in
    Mutex.unlock j.j_lock;
    p
  in
  if proceed then begin
    let result = try Ok (run ()) with exn -> Error exn in
    Mutex.lock j.j_lock;
    j.j_state <- `Done result;
    Mutex.unlock j.j_lock
  end;
  (* Release before firing: an awaiter that proceeds to tear the world
     down must find the slot free and the queue pumped. *)
  release_slot t;
  retire j

let submit t ?deadline_s ?(label = "") ?(on_cancel = fun _ -> ()) run =
  let j =
    {
      j_label = label;
      j_lock = Mutex.create ();
      j_state = `Queued;
      j_cancel = None;
      j_on_cancel = on_cancel;
      j_done = Sched.Event.create ();
      j_deadline = Atomic.make None;
    }
  in
  let entry =
    {
      e_skip =
        (fun () ->
          Mutex.lock j.j_lock;
          let terminal =
            match j.j_state with `Done _ -> true | `Queued | `Running -> false
          in
          Mutex.unlock j.j_lock;
          terminal);
      e_launch =
        (fun () -> ignore (Sched.fork t.rt_sched (run_job t j run) : _ Sched.task));
    }
  in
  (* Expiry is an idempotent cancel request, run on the poller.  The
     deadline is set before the job can launch, so the job's [retire]
     always finds it. *)
  let deadline =
    Option.map
      (fun d ->
        Sched.at (Clock.now () +. d) (fun () -> cancel_with j Deadline_exceeded))
      deadline_s
  in
  Atomic.set j.j_deadline deadline;
  Mutex.lock t.lock;
  if t.shut then begin
    Mutex.unlock t.lock;
    Option.iter Sched.cancel_timer deadline;
    invalid_arg "Runtime.submit: runtime is closed"
  end;
  t.active <- t.active + 1;
  Queue.push entry t.pending;
  Mutex.unlock t.lock;
  pump t;
  j

let await j =
  Sched.Event.wait j.j_done;
  Mutex.lock j.j_lock;
  let r =
    match j.j_state with
    | `Done r -> r
    | `Queued | `Running -> assert false
  in
  Mutex.unlock j.j_lock;
  r

let running t =
  Mutex.lock t.lock;
  let n = t.running in
  Mutex.unlock t.lock;
  n

let queued t =
  Mutex.lock t.lock;
  let n = Queue.length t.pending in
  Mutex.unlock t.lock;
  n

let close t =
  Mutex.lock t.lock;
  t.shut <- true;
  Mutex.unlock t.lock;
  (* Anything still queued and not yet cancelled gets to run; pump in
     case no running job remains to trigger the next launch. *)
  pump t;
  let rec drain () =
    Mutex.lock t.lock;
    let busy = t.active > 0 in
    Mutex.unlock t.lock;
    if busy then begin
      Sched.suspend (fun wake ->
          Mutex.lock t.lock;
          let busy = t.active > 0 in
          if busy then t.quiet <- wake :: t.quiet;
          Mutex.unlock t.lock;
          busy);
      drain ()
    end
  in
  drain ()
