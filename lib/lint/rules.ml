(* The three conclint rules, evaluated over the shape IR with the
   effect table from {!Effects}:

   CL001  a may-suspend call lexically inside a held-mutex region,
          tracked through branches and early raises (a raise does not
          end the region: the lock leaks with the exception);
   CL002  inconsistent lock acquisition order: a cycle in the static
          lock graph means a potential ABBA deadlock;
   CL003  a blocking primitive reachable from fiber context, where it
          would stall a pool worker invisibly to the scheduler;
   CL004  a domain or thread started outside lib/sched: concurrent work
          starts as a [Sched] task, and only the scheduler makes the
          domains that run tasks. *)

module SS = Set.Make (String)

type acc = {
  table : Effects.table;
  mutable diags : Cldiag.t list;
  mutable edges : (string * string * Cldiag.pos * string) list;
      (* held -> acquired, site, via *)
}

let report acc ~code ~slug ~pos ?(chain = []) message =
  acc.diags <- Cldiag.v ~code ~slug ~pos ~chain message :: acc.diags

let held_keys held = List.map fst held

let describe_held held =
  String.concat ", "
    (List.map
       (fun (k, (p : Cldiag.pos)) ->
         Printf.sprintf "%s (locked at %s:%d)" k p.file p.line)
       held)

(* ------------------------------------------------------------------ *)
(* CL001: the lock-region walk                                         *)

let cl001_root acc ~owner held callee pos =
  report acc ~code:"CL001" ~slug:"suspend-under-lock" ~pos
    ~chain:[ Printf.sprintf "%s is a may-suspend root" callee ]
    (Printf.sprintf "%s: may-suspend call to %s while holding %s" owner callee
       (describe_held held))

let cl001_via acc ~owner held callee pos (m : Effects.info) =
  match m.hard with
  | Some _ ->
      report acc ~code:"CL001" ~slug:"suspend-under-lock" ~pos
        ~chain:
          (Printf.sprintf "%s calls %s (%s:%d)" owner (Shape.pretty callee)
             pos.Cldiag.file pos.Cldiag.line
          :: Effects.chain acc.table callee)
        (Printf.sprintf "%s: call to %s may suspend while holding %s" owner
           (Shape.pretty callee) (describe_held held))
  | None -> ()

let cl001_cv acc ~owner held callee pos cv_keys =
  report acc ~code:"CL001" ~slug:"suspend-under-lock" ~pos
    ~chain:
      [
        Printf.sprintf "%s waits on a condition variable of %s"
          (Shape.pretty callee)
          (String.concat ", " (SS.elements cv_keys));
      ]
    (Printf.sprintf
       "%s: call to %s condition-waits while also holding %s (wait releases \
        only its own mutex)"
       owner (Shape.pretty callee) (describe_held held))

(* Walk a shape list with the set of held locks; returns the exit held
   set and whether the path unconditionally diverges (raises). *)
let rec walk acc ~owner held shapes =
  match shapes with
  | [] -> (held, false)
  | shape :: rest -> (
      match step acc ~owner held shape with
      | held', false -> walk acc ~owner held' rest
      | held', true -> (held', true) (* unreachable tail *))

and step acc ~owner held shape =
  match shape with
  | Shape.Lock (k, p) ->
      List.iter
        (fun (h, _) -> acc.edges <- (h, k, p, "Mutex.lock") :: acc.edges)
        held;
      (held @ [ (k, p) ], false)
  | Unlock (k, _) ->
      let rec drop = function
        | [] -> []
        | (h, _) :: tl when h = k -> tl
        | hd :: tl -> hd :: drop tl
      in
      (drop (List.rev held) |> List.rev, false)
  | Cond_wait (key, pos) ->
      let exempt =
        match key with
        | Some k -> List.for_all (fun (h, _) -> h = k) held
        | None -> held = []
      in
      if (not exempt) && held <> [] then
        report acc ~code:"CL001" ~slug:"suspend-under-lock" ~pos
          (Printf.sprintf
             "%s: Condition.wait%s while holding %s (wait releases only its \
              own mutex)"
             owner
             (match key with Some k -> " on " ^ k | None -> "")
             (describe_held
                (match key with
                | Some k -> List.filter (fun (h, _) -> h <> k) held
                | None -> held)));
      (held, false)
  | Raise _ -> (held, true)
  | Branch alts ->
      let outs = List.map (fun alt -> walk acc ~owner held alt) alts in
      let live = List.filter (fun (_, d) -> not d) outs in
      if live = [] then (held, true)
      else
        let keep (k, p) =
          if List.for_all (fun (h, _) -> List.mem_assoc k h) live then
            Some (k, p)
          else None
        in
        (* Intersection of the non-diverging exits: a lock released in
           every live branch is gone, one released in only some is
           conservatively kept (first live exit wins). *)
        let first, _ = List.hd live in
        (List.filter_map keep first, false)
  | Defer body ->
      ignore (walk acc ~owner [] body);
      (held, false)
  | Call c -> call acc ~owner held c

and call acc ~owner held (c : Shape.call) =
  match Effects.spawn_ctx c.callee with
  | Some _ ->
      (* Detached closure: runs later with nothing held. *)
      List.iter (fun body -> ignore (walk acc ~owner [] body)) c.closures;
      (held, false)
  | None -> (
      let wrapper_key =
        if c.callee = "Mutex.protect" then c.recv_key
        else Hashtbl.find_opt acc.table.wrappers c.callee
      in
      match wrapper_key with
      | Some k ->
          List.iter
            (fun (h, _) -> acc.edges <- (h, k, c.cpos, c.callee) :: acc.edges)
            held;
          List.iter
            (fun body ->
              ignore (walk acc ~owner (held @ [ (k, c.cpos) ]) body))
            c.closures;
          (held, false)
      | None ->
          let check name =
            if held <> [] then begin
              if SS.mem name Effects.hard_roots then
                cl001_root acc ~owner held name c.cpos
              else
                match Hashtbl.find_opt acc.table.nodes name with
                | Some m when Effects.saturated acc.table name c.applied ->
                    if m.hard <> None then cl001_via acc ~owner held name c.cpos m
                    else if
                      (not (SS.is_empty m.cv))
                      && List.exists
                           (fun h -> not (SS.mem h m.cv))
                           (held_keys held)
                    then cl001_cv acc ~owner held name c.cpos m.cv;
                    List.iter
                      (fun h ->
                        SS.iter
                          (fun a ->
                            acc.edges <- (h, a, c.cpos, name) :: acc.edges)
                          m.acquires)
                      (held_keys held)
                | _ -> ()
            end
          in
          check c.callee;
          if SS.mem c.callee Effects.sync_hofs then List.iter check c.heads;
          List.iter (fun body -> ignore (walk acc ~owner held body)) c.closures;
          (held, false))

(* ------------------------------------------------------------------ *)
(* CL002: lock-order cycles                                            *)

let cl002 acc =
  (* Adjacency over distinct keys; self-edges are skipped (two
     instances behind one field name are indistinguishable statically). *)
  let edges =
    List.filter (fun (a, b, _, _) -> a <> b) acc.edges
    |> List.sort_uniq compare
  in
  let adj = Hashtbl.create 16 in
  List.iter
    (fun (a, b, p, via) ->
      Hashtbl.replace adj a ((b, p, via) :: (try Hashtbl.find adj a with Not_found -> [])))
    edges;
  let reported = Hashtbl.create 4 in
  let black = Hashtbl.create 16 in
  let rec dfs path node =
    if not (Hashtbl.mem black node) then
      match List.assoc_opt node path with
      | Some _ ->
          (* Back edge: the cycle is the path suffix starting at the
             first occurrence of [node]. *)
          let cycle =
            let rec from = function
              | (k, e) :: tl -> if k = node then (k, e) :: tl else from tl
              | [] -> []
            in
            from (List.rev path)
          in
          let keys = List.map fst cycle in
          let canon = String.concat " -> " (List.sort compare keys) in
          if not (Hashtbl.mem reported canon) then begin
            Hashtbl.replace reported canon ();
            let _, (p, via) = List.hd (List.rev cycle) in
            report acc ~code:"CL002" ~slug:"lock-order-cycle" ~pos:p
              ~chain:
                (List.map
                   (fun (k, ((ep : Cldiag.pos), evia)) ->
                     Printf.sprintf "%s acquired at %s:%d (via %s)" k ep.file
                       ep.line evia)
                   cycle)
              (Printf.sprintf
                 "inconsistent lock order: %s form a cycle (potential ABBA \
                  deadlock, e.g. via %s)"
                 (String.concat " -> " (keys @ [ List.hd keys ]))
                 via)
          end
      | None ->
          (match Hashtbl.find_opt adj node with
          | None -> ()
          | Some nexts ->
              List.iter
                (fun (b, p, via) -> dfs ((node, (p, via)) :: path) b)
                nexts);
          Hashtbl.replace black node ()
  in
  Hashtbl.iter (fun a _ -> dfs [] a) adj

(* ------------------------------------------------------------------ *)
(* CL003: blocking primitives reachable from fiber context             *)

let cl003 acc =
  let t = acc.table in
  (* BFS over saturated call edges from every fiber entry. *)
  let seen = Hashtbl.create 64 in
  let parent = Hashtbl.create 64 in
  let queue = Queue.create () in
  let enqueue ~from key pos =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      Hashtbl.replace parent key (from, pos);
      Queue.push key queue
    end
  in
  let rec path_to key =
    match Hashtbl.find_opt parent key with
    | Some (Some from, (pos : Cldiag.pos)) ->
        path_to from
        @ [
            Printf.sprintf "%s calls %s (%s:%d)" (Shape.pretty from)
              (Shape.pretty key) pos.file pos.line;
          ]
    | Some (None, (pos : Cldiag.pos)) ->
        [
          Printf.sprintf "%s forked as a fiber (%s:%d)" (Shape.pretty key)
            pos.file pos.line;
        ]
    | None -> []
  in
  let report_site ~owner_chain name (pos : Cldiag.pos) =
    report acc ~code:"CL003" ~slug:"blocking-in-fiber" ~pos
      ~chain:owner_chain
      (Printf.sprintf
         "blocking call to %s reachable from fiber context (stalls a pool \
          worker invisibly to the scheduler)"
         name)
  in
  (* Literal fiber closures: check their own calls, then seed the named
     functions they reach. *)
  let scan_entry (e : Effects.entry) =
    match e.e_ctx with
    | Effects.Domain_ctx -> ()
    | Fiber -> (
        match e.e_target with
        | Some target -> enqueue ~from:None target e.e_pos
        | None ->
            let probe =
              {
                Effects.node =
                  {
                    Shape.key = e.e_owner ^ ".<fiber>";
                    display = e.e_owner ^ ".<fiber>";
                    npos = e.e_pos;
                    arity = 0;
                    body = e.e_body;
                  };
                calls = [];
                cv = SS.empty;
                unknown_cv = false;
                acquires = SS.empty;
                hard = None;
                blocking = None;
              }
            in
            Effects.scan_direct probe e.e_body;
            List.iter
              (fun (callee, _, pos) ->
                if SS.mem callee Effects.blocking_roots then
                  report_site
                    ~owner_chain:
                      [
                        Printf.sprintf "fiber forked in %s (%s:%d)"
                          (Shape.pretty e.e_owner)
                          e.e_pos.Cldiag.file e.e_pos.Cldiag.line;
                      ]
                    callee pos
                else enqueue ~from:None callee e.e_pos)
              probe.calls)
  in
  List.iter scan_entry t.entries;
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    match Hashtbl.find_opt t.nodes key with
    | None -> ()
    | Some info ->
        List.iter
          (fun (callee, applied, pos) ->
            if SS.mem callee Effects.blocking_roots then
              report_site
                ~owner_chain:
                  (path_to key
                  @ [
                      Printf.sprintf "%s calls %s (%s:%d)" (Shape.pretty key)
                        callee pos.Cldiag.file pos.Cldiag.line;
                    ])
                callee pos
            else if Effects.saturated t callee applied then
              enqueue ~from:(Some key) callee pos)
          info.calls
  done

(* ------------------------------------------------------------------ *)
(* CL004: domains and threads started outside the scheduler            *)

let in_sched (pos : Cldiag.pos) =
  Filename.basename (Filename.dirname pos.file) = "sched"

let cl004 acc =
  let rec go owner = function
    | Shape.Lock _ | Unlock _ | Cond_wait _ | Raise _ -> ()
    | Branch alts -> List.iter (List.iter (go owner)) alts
    | Defer body -> List.iter (go owner) body
    | Call c ->
        (match Effects.spawn_ctx c.callee with
        | Some Effects.Domain_ctx when not (in_sched c.cpos) ->
            report acc ~code:"CL004" ~slug:"spawn-outside-sched" ~pos:c.cpos
              (Printf.sprintf
                 "%s: %s outside lib/sched (fork a Sched task instead)" owner
                 c.callee)
        | Some _ | None -> ());
        List.iter (List.iter (go owner)) c.closures
  in
  Hashtbl.iter
    (fun _ (info : Effects.info) ->
      List.iter (go info.node.Shape.display) info.node.Shape.body)
    acc.table.nodes

(* ------------------------------------------------------------------ *)

let run (t : Effects.table) : Cldiag.t list =
  let acc = { table = t; diags = []; edges = [] } in
  Hashtbl.iter
    (fun _ (info : Effects.info) ->
      ignore (walk acc ~owner:info.node.Shape.display [] info.node.Shape.body))
    t.nodes;
  cl002 acc;
  cl003 acc;
  cl004 acc;
  acc.diags
