module Sched = Volcano_sched.Sched

exception Cancelled

(* Each port key has its own write-once cell: [Some port] once the master
   publishes it, [None] once the group is cancelled first.  A lookup
   waits on its own key's cell alone, so a publish wakes only the lookups
   for that key. *)
type shared = {
  group_size : int;
  lock : Mutex.t;
  ports : (int, Port.t option Sched.Ivar.t) Hashtbl.t;
  mutable dead : bool;
}

type t = { rank : int; shared : shared }

let make_shared ~size =
  assert (size > 0);
  {
    group_size = size;
    lock = Mutex.create ();
    ports = Hashtbl.create 8;
    dead = false;
  }

let attach shared ~rank =
  assert (rank >= 0 && rank < shared.group_size);
  { rank; shared }

let solo () = attach (make_shared ~size:1) ~rank:0

let rank t = t.rank
let size t = t.shared.group_size
let is_master t = t.rank = 0

(* A key published before (an exchange re-opened under a rescanning
   parent) gets a new cell holding the new port; lookups from then on
   find it. *)
let publish_port t ~key port =
  if not (is_master t) then invalid_arg "Group.publish_port: not the master";
  let s = t.shared in
  Mutex.lock s.lock;
  let cell =
    match Hashtbl.find_opt s.ports key with
    | Some cell when Option.is_none (Sched.Ivar.peek cell) -> cell
    | Some _ | None ->
        let cell = Sched.Ivar.create () in
        Hashtbl.replace s.ports key cell;
        cell
  in
  Mutex.unlock s.lock;
  ignore (Sched.Ivar.fill cell (Some port) : bool)

(* A member that dies may do so before publishing a port its siblings are
   waiting for — nothing would ever publish it, and the waiters (and the
   joiner behind them) would hang forever.  The failure handler marks the
   whole group dead and fills every unpublished key's cell with [None];
   a lookup that arrives later finds the group dead. *)
let cancel t =
  let s = t.shared in
  Mutex.lock s.lock;
  s.dead <- true;
  let cells = Hashtbl.fold (fun _ cell cells -> cell :: cells) s.ports [] in
  Mutex.unlock s.lock;
  List.iter (fun cell -> ignore (Sched.Ivar.fill cell None : bool)) cells

let lookup_port t ~key =
  let s = t.shared in
  Mutex.lock s.lock;
  let cell =
    match Hashtbl.find_opt s.ports key with
    | Some _ as cell -> cell
    | None when s.dead -> None
    | None ->
        let cell = Sched.Ivar.create () in
        Hashtbl.add s.ports key cell;
        Some cell
  in
  Mutex.unlock s.lock;
  match Option.bind cell Sched.Ivar.read with
  | Some port -> port
  | None -> raise Cancelled
