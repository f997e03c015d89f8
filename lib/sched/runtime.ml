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
  pending : entry Queue.t;
  mutable running : int;
  mutable active : int; (* submitted jobs whose result is not yet in *)
  mutable shut : bool;
  drained : unit Sched.Ivar.t; (* filled once [shut] and [active = 0] *)
}

(* [j_state] goes [`Done] under [j_lock] as the job's outcome is decided
   (its closure returned, or it was cancelled while queued); the outcome
   itself lands in [j_result] a little later, outside every lock. *)
type 'a job = {
  j_label : string;
  j_lock : Mutex.t;
  mutable j_state : [ `Queued | `Running | `Done ];
  mutable j_cancel : exn option; (* first cancellation reason, if any *)
  j_on_cancel : exn -> unit;
  j_result : ('a, exn) result Sched.Ivar.t;
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
    pending = Queue.create ();
    running = 0;
    active = 0;
    shut = false;
    drained = Sched.Ivar.create ();
  }

let sched t = t.rt_sched
let max_concurrent t = t.rt_max
let label j = j.j_label

let status j =
  Mutex.lock j.j_lock;
  let s =
    match (Sched.Ivar.peek j.j_result, j.j_cancel) with
    | Some (Ok _), _ -> Finished
    | Some (Error _), Some _ -> Aborted
    | Some (Error _), None -> Failed
    | None, _ -> if j.j_state = `Queued then Queued else Running
  in
  Mutex.unlock j.j_lock;
  s

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

(* [n] jobs have their result in; the last one after [close] fills
   [drained]. *)
let retire t n =
  Mutex.lock t.lock;
  t.active <- t.active - n;
  let drained = t.shut && t.active = 0 in
  Mutex.unlock t.lock;
  if drained then ignore (Sched.Ivar.fill t.drained () : bool)

(* Launch queued entries into free slots; forks happen outside the
   lock. *)
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
  Mutex.unlock t.lock;
  retire t !retired;
  List.iter (fun launch -> launch ()) !launches

let release_slot t =
  Mutex.lock t.lock;
  t.running <- t.running - 1;
  Mutex.unlock t.lock;
  pump t

(* ------------------------------------------------------------------ *)
(* Jobs                                                                *)

(* A terminal job drops its deadline, so no timer outlives it.  The
   first result in wins: a cancel and a launched job's own start may
   both put in the same cancellation. *)
let finish j r =
  Option.iter Sched.cancel_timer (Atomic.get j.j_deadline);
  ignore (Sched.Ivar.fill j.j_result r : bool)

let cancel_with j reason =
  Mutex.lock j.j_lock;
  let action =
    match (j.j_state, j.j_cancel) with
    | `Done, _ | _, Some _ -> `Nothing
    | `Queued, None ->
        j.j_cancel <- Some reason;
        j.j_state <- `Done;
        `Finish
    | `Running, None ->
        j.j_cancel <- Some reason;
        `Hook
  in
  Mutex.unlock j.j_lock;
  match action with
  | `Finish -> finish j (Error reason)
  | `Hook -> ( try j.j_on_cancel reason with _ -> ())
  | `Nothing -> ()

let cancel j = cancel_with j Cancelled

let run_job t j run () =
  Mutex.lock j.j_lock;
  let proceed = j.j_state = `Queued in
  if proceed then j.j_state <- `Running;
  let cancelled = j.j_cancel in
  Mutex.unlock j.j_lock;
  let result =
    if proceed then begin
      let r = try Ok (run ()) with exn -> Error exn in
      Mutex.lock j.j_lock;
      j.j_state <- `Done;
      Mutex.unlock j.j_lock;
      r
    end
    else
      (* Cancelled between admission and fiber start; the cancel may not
         have put its result in yet. *)
      Error (Option.get cancelled)
  in
  (* Release before filling: an awaiter that proceeds to tear the world
     down must find the slot free and the queue pumped.  The job leaves
     [active] only once its result is in, so [close] returns after every
     result is. *)
  release_slot t;
  finish j result;
  retire t 1

let submit t ?deadline_s ?(label = "") ?(on_cancel = fun _ -> ()) run =
  let j =
    {
      j_label = label;
      j_lock = Mutex.create ();
      j_state = `Queued;
      j_cancel = None;
      j_on_cancel = on_cancel;
      j_result = Sched.Ivar.create ();
      j_deadline = Atomic.make None;
    }
  in
  let entry =
    {
      (* Cancelled while queued, and its result already in: it never
         takes a slot.  A cancel whose result is not in yet launches it,
         and [run_job] puts the same result in. *)
      e_skip = (fun () -> Option.is_some (Sched.Ivar.peek j.j_result));
      e_launch =
        (fun () -> ignore (Sched.fork t.rt_sched (run_job t j run) : _ Sched.task));
    }
  in
  (* Expiry is an idempotent cancel request, run on the poller.  The
     deadline is set before the job can launch, so the job's [finish]
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

let await j = Sched.Ivar.read j.j_result

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
     case no running job remains to trigger the next launch.  The pump
     fills [drained] if no job is active. *)
  pump t;
  Sched.Ivar.read t.drained
