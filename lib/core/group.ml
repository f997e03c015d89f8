module Sched = Volcano_sched.Sched

exception Cancelled

type shared = {
  group_size : int;
  lock : Mutex.t;
  ports : (int, Port.t) Hashtbl.t;
  mutable dead : bool;
  (* Wakers of blocked lookups, drained under [lock] by [publish_port]
     and [cancel].  Wakers are idempotent and waiters re-register, so
     waking on every publish is correct even when a lookup waits for a
     different key. *)
  mutable waiters : (unit -> unit) list;
}

type t = { rank : int; shared : shared }

let make_shared ~size =
  assert (size > 0);
  {
    group_size = size;
    lock = Mutex.create ();
    ports = Hashtbl.create 8;
    dead = false;
    waiters = [];
  }

let attach shared ~rank =
  assert (rank >= 0 && rank < shared.group_size);
  { rank; shared }

let solo () = attach (make_shared ~size:1) ~rank:0

let rank t = t.rank
let size t = t.shared.group_size
let is_master t = t.rank = 0

let drain_waiters shared =
  let wakers = shared.waiters in
  shared.waiters <- [];
  wakers

let publish_port t ~key port =
  if not (is_master t) then invalid_arg "Group.publish_port: not the master";
  Mutex.lock t.shared.lock;
  Hashtbl.replace t.shared.ports key port;
  let wakers = drain_waiters t.shared in
  Mutex.unlock t.shared.lock;
  List.iter (fun wake -> wake ()) wakers

(* A member that dies may do so before publishing a port its siblings are
   waiting for — nothing would ever publish it, and the waiters (and the
   joiner behind them) would hang forever.  The failure handler marks the
   whole group dead and wakes every waiter; a woken lookup that still
   finds no port gives up. *)
let cancel t =
  Mutex.lock t.shared.lock;
  t.shared.dead <- true;
  let wakers = drain_waiters t.shared in
  Mutex.unlock t.shared.lock;
  List.iter (fun wake -> wake ()) wakers

(* The waker is registered under the same lock that publish/cancel take,
   so the found-nothing re-check inside [register] cannot race them. *)
let rec lookup_port t ~key =
  Mutex.lock t.shared.lock;
  let found = Hashtbl.find_opt t.shared.ports key in
  let dead = t.shared.dead in
  Mutex.unlock t.shared.lock;
  match found with
  | Some port -> port
  | None ->
      if dead then raise Cancelled;
      Sched.suspend (fun wake ->
          Mutex.lock t.shared.lock;
          let pending =
            (not (Hashtbl.mem t.shared.ports key)) && not t.shared.dead
          in
          if pending then t.shared.waiters <- wake :: t.shared.waiters;
          Mutex.unlock t.shared.lock;
          pending);
      lookup_port t ~key
