(* Inter-module effect propagation over the shape IR.

   Seeds a may-suspend set from known roots (Sched.suspend and the
   engine's waits built on it: Sched.await, Ivar.read, Slot.park,
   Port.send and the Port receives, Group.lookup_port; plus
   Condition.wait and raw Domain.join) and propagates it transitively
   over the call graph.
   Condition waits are tracked separately with the mutex they wait on:
   a CV wait under its *own* mutex is the correct monitor idiom and is
   only a hazard when some other lock is also held.  Spawned closures
   (Domain.spawn, Sched.fork, spawn_task) run detached, so their effects
   do not flow into the spawning function; they become entries of their
   own, remembered with the context (fiber or domain) they run in. *)

module SS = Set.Make (String)

(* Fiber-suspension roots for CL001.  Sleeps and blocking reads are
   deliberately absent: they stall the calling thread but release
   nothing to an idle worker, so under a lock they are a latency bug,
   not the lost-lock deadlock CL001 proves; they are CL003's concern
   when reachable from fiber context. *)
let hard_roots =
  SS.of_list
    [
      "Sched.suspend";
      "Sched.await";
      "Ivar.read";
      "Slot.park";
      "Port.send";
      "Port.receive";
      "Port.receive_from";
      "Group.lookup_port";
      "Domain.join";
    ]

(* Socket and file-descriptor calls joined the set with the network
   subsystem: a fiber that blocks in [Unix.read] on a socket stalls its
   pool worker exactly as a sleep does.  Code run by a domain or thread
   of its own (the poller, a client's threads) is [Domain_ctx] and
   exempt; sites that block deliberately, or call on a non-blocking
   descriptor, carry [(* conclint: allow CL003 *)]. *)
let blocking_roots =
  SS.of_list
    [
      "Unix.sleep";
      "Unix.sleepf";
      "Unix.select";
      "Thread.delay";
      "Domain.join";
      "Unix.read";
      "Unix.write";
      "Unix.connect";
      "Unix.accept";
    ]

type spawn_ctx = Fiber | Domain_ctx

let spawn_ctx name =
  let last =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  match name with
  | "Sched.fork" -> Some Fiber
  | "Domain.spawn" | "Thread.create" -> Some Domain_ctx
  | _ -> if last = "spawn_task" then Some Fiber else None

(* Higher-order combinators that call their function arguments
   synchronously: a bare function ident passed to one of these counts as
   a call from the enclosing function. *)
let sync_hofs =
  SS.of_list
    [
      "Fun.protect";
      "List.iter";
      "List.iteri";
      "List.map";
      "List.concat_map";
      "List.filter_map";
      "List.fold_left";
      "List.for_all";
      "List.exists";
      "Array.iter";
      "Array.iteri";
      "Array.map";
      "Option.iter";
      "Option.map";
      "Option.fold";
      "Queue.iter";
      "Hashtbl.iter";
      "Seq.iter";
      "Seq.map";
    ]

(* Why a node may suspend (or block): the offending callee/root and the
   call site.  Chains are reconstructed by following [why] through the
   table until a root is reached. *)
type why = { what : string; wpos : Cldiag.pos }

type info = {
  node : Shape.node;
  mutable calls : (string * int * Cldiag.pos) list; (* callee, applied, pos *)
  mutable cv : SS.t; (* mutexes transitively CV-waited on *)
  mutable unknown_cv : bool; (* some CV wait key unresolvable *)
  mutable acquires : SS.t; (* locks transitively acquired *)
  mutable hard : why option; (* non-CV suspension reachable *)
  mutable blocking : why option; (* L3 blocking root reachable *)
}

type entry = {
  e_ctx : spawn_ctx;
  e_owner : string; (* node containing the spawn site *)
  e_pos : Cldiag.pos;
  e_target : string option; (* named function spawned, if not a literal *)
  e_body : Shape.t list; (* literal closure body, else [] *)
}

type table = {
  nodes : (string, info) Hashtbl.t;
  wrappers : (string, string) Hashtbl.t; (* with_lock-style node -> lock key *)
  entries : entry list;
}

let wrapper_name key =
  let last =
    match String.rindex_opt key '.' with
    | Some i -> String.sub key (i + 1) (String.length key - i - 1)
    | None -> key
  in
  last = "locked" || last = "with_lock"

let is_wrapper t callee = Hashtbl.mem t.wrappers callee

(* Direct (synchronously executed) facts of a shape list: spawned
   closures excluded, deferred lambdas excluded, inline closures of
   ordinary calls included. *)
let scan_direct info shapes =
  let rec go = function
    | Shape.Lock (k, _) -> info.acquires <- SS.add k info.acquires
    | Unlock _ -> ()
    | Cond_wait (Some k, _) -> info.cv <- SS.add k info.cv
    | Cond_wait (None, _) -> info.unknown_cv <- true
    | Raise _ -> ()
    | Branch alts -> List.iter (List.iter go) alts
    | Defer _ -> ()
    | Call c ->
        if spawn_ctx c.callee = None then begin
          info.calls <- (c.callee, c.applied, c.cpos) :: info.calls;
          if c.callee = "Mutex.protect" then
            Option.iter
              (fun k -> info.acquires <- SS.add k info.acquires)
              c.recv_key;
          List.iter (List.iter go) c.closures;
          if SS.mem c.callee sync_hofs then
            List.iter
              (fun h -> info.calls <- (h, -1, c.cpos) :: info.calls)
              c.heads
        end
  in
  List.iter go shapes

(* Collect spawn sites anywhere in a shape tree (including inside
   branches, deferred lambdas and inline closures). *)
let collect_entries owner shapes =
  let acc = ref [] in
  let rec go = function
    | Shape.Lock _ | Unlock _ | Cond_wait _ | Raise _ -> ()
    | Branch alts -> List.iter (List.iter go) alts
    | Defer body -> List.iter go body
    | Call c -> (
        List.iter (List.iter go) c.closures;
        match spawn_ctx c.callee with
        | None -> ()
        | Some ctx ->
            List.iter
              (fun body ->
                acc :=
                  {
                    e_ctx = ctx;
                    e_owner = owner;
                    e_pos = c.cpos;
                    e_target = None;
                    e_body = body;
                  }
                  :: !acc)
              c.closures;
            List.iter
              (fun h ->
                acc :=
                  {
                    e_ctx = ctx;
                    e_owner = owner;
                    e_pos = c.cpos;
                    e_target = Some h;
                    e_body = [];
                  }
                  :: !acc)
              c.heads)
  in
  List.iter go shapes;
  !acc

(* A call is real (not a partial application) when the site saturates
   the callee's non-optional parameters; heads recorded from HOF
   arguments use applied = -1, meaning "saturated by the combinator". *)
let saturated t callee applied =
  applied = -1
  ||
  match Hashtbl.find_opt t.nodes callee with
  | Some m -> applied >= m.node.arity
  | None -> true

let build (nodes : Shape.node list) : table =
  let t =
    {
      nodes = Hashtbl.create 256;
      wrappers = Hashtbl.create 8;
      entries = [];
    }
  in
  List.iter
    (fun (n : Shape.node) ->
      let info =
        {
          node = n;
          calls = [];
          cv = SS.empty;
          unknown_cv = false;
          acquires = SS.empty;
          hard = None;
          blocking = None;
        }
      in
      scan_direct info n.body;
      Hashtbl.replace t.nodes n.key info)
    nodes;
  (* Wrapper detection: a [locked] / [with_lock] function whose body
     opens with a Mutex.lock is treated like Mutex.protect at call
     sites: its closure argument runs under that lock. *)
  Hashtbl.iter
    (fun key info ->
      if wrapper_name key then
        match info.node.body with
        | Shape.Lock (k, _) :: _ -> Hashtbl.replace t.wrappers key k
        | _ -> ())
    t.nodes;
  let entries =
    List.concat_map (fun (n : Shape.node) -> collect_entries n.key n.body) nodes
  in
  (* Fixpoint: propagate hard-suspend, CV keys and acquired locks over
     saturated call edges. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun _ info ->
        List.iter
          (fun (callee, applied, pos) ->
            if SS.mem callee hard_roots then begin
              if info.hard = None then begin
                info.hard <- Some { what = callee; wpos = pos };
                changed := true
              end;
              if SS.mem callee blocking_roots && info.blocking = None then begin
                info.blocking <- Some { what = callee; wpos = pos };
                changed := true
              end
            end
            else
              match Hashtbl.find_opt t.nodes callee with
              | Some m when saturated t callee applied ->
                  if m.hard <> None && info.hard = None then begin
                    info.hard <- Some { what = callee; wpos = pos };
                    changed := true
                  end;
                  if m.blocking <> None && info.blocking = None then begin
                    info.blocking <- Some { what = callee; wpos = pos };
                    changed := true
                  end;
                  if not (SS.subset m.cv info.cv) then begin
                    info.cv <- SS.union info.cv m.cv;
                    changed := true
                  end;
                  if m.unknown_cv && not info.unknown_cv then begin
                    info.unknown_cv <- true;
                    changed := true
                  end;
                  if not (SS.subset m.acquires info.acquires) then begin
                    info.acquires <- SS.union info.acquires m.acquires;
                    changed := true
                  end
              | _ -> ())
          info.calls)
      t.nodes
  done;
  { t with entries }

(* Render the call chain explaining why [key] may suspend/block: follow
   the recorded [why] links from node to node until a root is reached. *)
let chain_gen t get root_label key =
  let buf = ref [] in
  let seen = Hashtbl.create 8 in
  let rec go key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      match Hashtbl.find_opt t.nodes key with
      | Some m -> (
          match get m with
          | Some next ->
              buf :=
                Printf.sprintf "%s calls %s (%s:%d)" (Shape.pretty key)
                  (Shape.pretty next.what) next.wpos.file next.wpos.line
                :: !buf;
              go next.what
          | None -> ())
      | None ->
          buf :=
            Printf.sprintf "%s is a %s root" (Shape.pretty key) root_label
            :: !buf
    end
  in
  go key;
  List.rev !buf

let chain t key = chain_gen t (fun m -> m.hard) "may-suspend" key
let chain_blocking t key = chain_gen t (fun m -> m.blocking) "blocking" key
