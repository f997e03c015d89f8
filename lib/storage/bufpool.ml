module Injector = Volcano_fault.Injector

type mode = Two_level | Single_global

exception Buffer_exhausted

type frame = {
  index : int;
  mutable device : Device.t option;
  mutable page : int;
  mutable data : Bytes.t;
      (* the page's bytes: a virtual page's own block, which the frame
         maps, or [own] for a real device's page *)
  mutable own : Bytes.t;
      (* the private block for real-device I/O; [Bytes.empty] until a
         real page first lands in this frame *)
  mutable fixes : int;
  mutable dirty : bool;
  lock : Mutex.t; (* descriptor lock: held during I/O on this frame *)
  mutable lru_prev : int; (* -1 = none; links valid only when fixes = 0 *)
  mutable lru_next : int;
  mutable on_lru : bool;
}

(* The frame table is keyed by one immediate int per (device, page) —
   no boxed pair to build, and no polymorphic hash or compare to run on
   it. *)
module Table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k lxor (k lsr 32)
end)

type t = {
  pool_lock : Mutex.t;
  global : Mutex.t;
      (* [Single_global] only: held across every fix and unfix, I/O
         included, around the same two-level path *)
  frames : frame array;
  table : int Table.t; (* key (device, page) -> frame index *)
  page_size : int;
  run : int; (* the most pages one reader fixes at once *)
  mutable lru_head : int; (* least recently used *)
  mutable lru_tail : int; (* most recently used *)
  md : mode;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_evictions : int Atomic.t;
  n_writebacks : int Atomic.t;
  n_restarts : int Atomic.t;
  mutable faults : Injector.t; (* chaos harness: fix-denial injection *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  restarts : int;
}

(* A run takes at most 1/32 of the pool, so a few concurrent readers
   cannot starve the rest of it. *)
let run_length_for ~frames = max 1 (min 8 (frames / 32))

let create ?(mode = Two_level) ~frames ~page_size () =
  assert (frames > 0);
  let make_frame index =
    {
      index;
      device = None;
      page = -1;
      data = Bytes.empty;
      own = Bytes.empty;
      fixes = 0;
      dirty = false;
      lock = Mutex.create ();
      lru_prev = index - 1;
      lru_next = (if index = frames - 1 then -1 else index + 1);
      on_lru = true;
    }
  in
  {
    pool_lock = Mutex.create ();
    global = Mutex.create ();
    frames = Array.init frames make_frame;
    table = Table.create (frames * 2);
    page_size;
    run = run_length_for ~frames;
    lru_head = 0;
    lru_tail = frames - 1;
    md = mode;
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_evictions = Atomic.make 0;
    n_writebacks = Atomic.make 0;
    n_restarts = Atomic.make 0;
    faults = Injector.none;
  }

let set_faults t faults = t.faults <- faults

(* LRU chain manipulation; caller holds the pool lock. *)

let lru_remove t f =
  if f.on_lru then begin
    if f.lru_prev >= 0 then t.frames.(f.lru_prev).lru_next <- f.lru_next
    else t.lru_head <- f.lru_next;
    if f.lru_next >= 0 then t.frames.(f.lru_next).lru_prev <- f.lru_prev
    else t.lru_tail <- f.lru_prev;
    f.lru_prev <- -1;
    f.lru_next <- -1;
    f.on_lru <- false
  end

let lru_append t f =
  assert (not f.on_lru);
  f.lru_prev <- t.lru_tail;
  f.lru_next <- -1;
  if t.lru_tail >= 0 then t.frames.(t.lru_tail).lru_next <- f.index
  else t.lru_head <- f.index;
  t.lru_tail <- f.index;
  f.on_lru <- true

let key dev page =
  if page < 0 || page >= 1 lsl 32 then invalid_arg "Bufpool: page out of range";
  (Device.id dev lsl 32) lor page

(* [Single_global] holds [global] across a whole operation; [Two_level]
   takes nothing here. *)
let serialize t = match t.md with Two_level -> () | Single_global -> Mutex.lock t.global
let release_serial t = match t.md with Two_level -> () | Single_global -> Mutex.unlock t.global

(* Fill a frame after a miss, under its descriptor lock only: map a
   virtual page's own block, or read a real page into the frame's private
   block.  [fresh]: the page is new, zeroed instead of read. *)
let load t dev page ~fresh f =
  if Device.is_virtual dev then
    f.data <- (if fresh then Device.map_new dev ~page else Device.map dev ~page)
  else begin
    if f.own == Bytes.empty then f.own <- Bytes.create t.page_size;
    f.data <- f.own;
    if fresh then Bytes.fill f.data 0 t.page_size '\000'
    else Device.read dev ~page f.data
  end

(* Pick the least recently used unfixed frame whose descriptor lock is free;
   its index, or -1.  Caller holds the pool lock; on success the victim's
   descriptor lock is held and the frame is off the LRU chain, but it
   REMAINS in the hash table: a concurrent fix of the old page must find the
   descriptor and fail its test-and-lock (then restart) rather than re-read a
   page whose write-back is still in flight. *)
let claim_victim t =
  let rec walk idx =
    if idx < 0 then -1
    else
      let f = t.frames.(idx) in
      if Mutex.try_lock f.lock then begin
        lru_remove t f;
        idx
      end
      else walk f.lru_next
  in
  walk t.lru_head

(* Give a claimed frame (descriptor lock held, off the LRU, clean) to page
   [k]; caller holds the pool lock.  The frame comes back fixed once, to be
   loaded. *)
let remap t f dev page k =
  (match f.device with
  | Some odev ->
      Table.remove t.table (key odev f.page);
      Atomic.incr t.n_evictions
  | None -> ());
  Table.replace t.table k f.index;
  f.device <- Some dev;
  f.page <- page;
  f.fixes <- 1;
  f.dirty <- false;
  Atomic.incr t.n_misses

(* Undo [remap] after a failed load, or the page becomes permanently
   unfixable; caller holds the pool lock, then releases the descriptor
   lock.  The frame lets go of the block it mapped. *)
let unmap t f k =
  Table.remove t.table k;
  f.device <- None;
  f.page <- -1;
  f.fixes <- 0;
  f.data <- f.own;
  lru_append t f

let unpin t f =
  f.fixes <- f.fixes - 1;
  if f.fixes = 0 then lru_append t f

let write_back t f =
  match f.device with
  | Some dev when f.dirty ->
      Device.write dev ~page:f.page f.data;
      f.dirty <- false;
      Atomic.incr t.n_writebacks
  | _ -> ()

(* What one pool-lock section did for one page, as an immediate int so a
   hit allocates nothing.  For frame [i] of [n]: [i] — the page was
   resident and is pinned; [n + i] — frame [i] was a clean victim, is
   remapped to the page and pinned, and its descriptor lock is held for
   the load; [2n + i] — frame [i] is a claimed dirty victim, still mapped
   to its old page until its write-back outside the pool lock. *)
let busy = -1 (* the page's descriptor is locked: restart (section 4.5) *)
let exhausted = -2 (* no unfixed frame with a free descriptor *)

(* The one claim-and-remap step of every fix; caller holds the pool lock. *)
let step t dev page k =
  let n = Array.length t.frames in
  match Table.find t.table k with
  | i ->
      let f = t.frames.(i) in
      if Mutex.try_lock f.lock then begin
        (* Atomic test-and-lock succeeded: the descriptor is quiescent. *)
        Mutex.unlock f.lock;
        if f.fixes = 0 then lru_remove t f;
        f.fixes <- f.fixes + 1;
        Atomic.incr t.n_hits;
        i
      end
      else busy
  | exception Not_found ->
      let i = claim_victim t in
      if i < 0 then exhausted
      else
        let f = t.frames.(i) in
        if f.dirty then (2 * n) + i
        else begin
          remap t f dev page k;
          n + i
        end

(* Load a frame [step] remapped; its descriptor lock is released either
   way. *)
let load_claimed t dev page k ~fresh f =
  match load t dev page ~fresh f with
  | () -> Mutex.unlock f.lock
  | exception exn ->
      Mutex.lock t.pool_lock;
      unmap t f k;
      Mutex.unlock t.pool_lock;
      Mutex.unlock f.lock;
      raise exn

(* Finish one page after a section left it at [r], restarting as needed:
   the general path.  Called with no pool lock held. *)
let rec settle t dev page k ~fresh ~attempts r =
  let n = Array.length t.frames in
  if r >= 0 && r < n then t.frames.(r)
  else if r >= n && r < 2 * n then begin
    let f = t.frames.(r - n) in
    load_claimed t dev page k ~fresh f;
    f
  end
  else if r >= 2 * n then begin
    let f = t.frames.(r - (2 * n)) in
    (* Clean the victim under its descriptor lock, with no pool lock held
       and its old mapping still visible.  If the write-back dies (a real
       I/O error or an injected one), the victim must go back on the LRU
       with its descriptor lock released — a locked descriptor makes every
       later fix of its page spin in the restart loop forever. *)
    (try write_back t f
     with exn ->
       Mutex.lock t.pool_lock;
       lru_append t f;
       Mutex.unlock t.pool_lock;
       Mutex.unlock f.lock;
       raise exn);
    Mutex.lock t.pool_lock;
    if Table.mem t.table k then begin
      (* Someone else loaded the wanted page while we were cleaning:
         return the (now clean) victim and restart from the lookup. *)
      lru_append t f;
      Mutex.unlock t.pool_lock;
      Mutex.unlock f.lock;
      Domain.cpu_relax ();
      fix_loop t dev page k ~fresh ~attempts
    end
    else begin
      remap t f dev page k;
      Mutex.unlock t.pool_lock;
      load_claimed t dev page k ~fresh f;
      f
    end
  end
  else if r = busy then begin
    (* Someone is reading or replacing this cluster: release, delay,
       restart — including the hash-table lookup (section 4.5). *)
    Atomic.incr t.n_restarts;
    Domain.cpu_relax ();
    fix_loop t dev page k ~fresh ~attempts
  end
  else begin
    if attempts > 10_000 then raise Buffer_exhausted;
    Domain.cpu_relax ();
    fix_loop t dev page k ~fresh ~attempts:(attempts + 1)
  end

and fix_loop t dev page k ~fresh ~attempts =
  Mutex.lock t.pool_lock;
  let r = step t dev page k in
  Mutex.unlock t.pool_lock;
  settle t dev page k ~fresh ~attempts r

let fix_general t dev page ~fresh =
  let k = key dev page in
  (* Consulted before any pool state changes: an injected denial models a
     transient out-of-buffer condition and leaks nothing. *)
  Injector.hit t.faults Volcano_fault.Bufpool_fix;
  serialize t;
  match fix_loop t dev page k ~fresh ~attempts:0 with
  | f ->
      release_serial t;
      f
  | exception exn ->
      release_serial t;
      raise exn

let fix t dev page = fix_general t dev page ~fresh:false

let fix_new t dev page =
  let f = fix_general t dev page ~fresh:true in
  f.dirty <- true;
  f

let bit mask i = mask land (1 lsl i) <> 0
let run_length t = t.run
let run_buffer t = Array.make t.run t.frames.(0)

(* Fix [len] pages in as few pool-lock sections as contention allows: one
   when every page is resident or has a clean victim.  A section stops at
   a page it cannot finish (a busy descriptor, a dirty victim, no victim);
   that page goes through [settle], and the next section starts after it.
   The remapped pages of a section load after it, in order, under their
   descriptor locks. *)
let fix_run t dev pages ~pos ~len run =
  if len < 0 || len > t.run || len > Array.length run || pos < 0
     || pos + len > Array.length pages
  then invalid_arg "Bufpool.fix_run: bad run";
  for i = pos to pos + len - 1 do
    (* per page, before any pool state changes, as in [fix]; [key]
       rejects a bad page number here rather than under the pool lock *)
    ignore (key dev pages.(i));
    Injector.hit t.faults Volcano_fault.Bufpool_fix
  done;
  let n = Array.length t.frames in
  let pinned = ref 0 in
  serialize t;
  match
    while !pinned < len do
      let first = !pinned in
      Mutex.lock t.pool_lock;
      let stop = ref first and r = ref busy and claimed = ref 0 in
      while
        !stop < len
        &&
        (r := step t dev pages.(pos + !stop) (key dev pages.(pos + !stop));
         !r >= 0 && !r < 2 * n)
      do
        let i = if !r < n then !r else !r - n in
        run.(!stop) <- t.frames.(i);
        if !r >= n then claimed := !claimed lor (1 lsl (!stop - first));
        incr stop
      done;
      Mutex.unlock t.pool_lock;
      for j = first to !stop - 1 do
        if bit !claimed (j - first) then
          let page = pages.(pos + j) in
          match load_claimed t dev page (key dev page) ~fresh:false run.(j) with
          | () -> ()
          | exception exn ->
              (* the rest of the section is let go: remapped frames
                 unmapped, hits unpinned; the handler below unpins the
                 pages before [j] *)
              Mutex.lock t.pool_lock;
              for m = j + 1 to !stop - 1 do
                if bit !claimed (m - first) then
                  unmap t run.(m) (key dev pages.(pos + m))
                else unpin t run.(m)
              done;
              Mutex.unlock t.pool_lock;
              for m = j + 1 to !stop - 1 do
                if bit !claimed (m - first) then Mutex.unlock run.(m).lock
              done;
              pinned := j;
              raise exn
      done;
      pinned := !stop;
      if !stop < len then begin
        let page = pages.(pos + !stop) in
        run.(!stop) <- settle t dev page (key dev page) ~fresh:false ~attempts:0 !r;
        pinned := !stop + 1
      end
    done
  with
  | () -> release_serial t
  | exception exn ->
      Mutex.lock t.pool_lock;
      for j = 0 to !pinned - 1 do
        unpin t run.(j)
      done;
      Mutex.unlock t.pool_lock;
      release_serial t;
      raise exn

let unfix t f =
  serialize t;
  Mutex.lock t.pool_lock;
  if f.fixes <= 0 then begin
    Mutex.unlock t.pool_lock;
    release_serial t;
    invalid_arg "Bufpool.unfix: frame is not fixed"
  end;
  unpin t f;
  Mutex.unlock t.pool_lock;
  release_serial t

let unfix_run t run ~len =
  serialize t;
  Mutex.lock t.pool_lock;
  for i = 0 to len - 1 do
    if run.(i).fixes <= 0 then begin
      Mutex.unlock t.pool_lock;
      release_serial t;
      invalid_arg "Bufpool.unfix_run: frame is not fixed"
    end
  done;
  for i = 0 to len - 1 do
    unpin t run.(i)
  done;
  Mutex.unlock t.pool_lock;
  release_serial t

let mark_dirty f = f.dirty <- true
let bytes f = f.data

let frame_device f =
  match f.device with
  | Some d -> d
  | None -> invalid_arg "Bufpool.frame_device: empty frame"

let frame_page f = f.page
let fix_count f = f.fixes

let contains t dev page =
  let k = key dev page in
  Mutex.lock t.pool_lock;
  let resident = Table.mem t.table k in
  Mutex.unlock t.pool_lock;
  resident

let flush_page t dev page =
  let k = key dev page in
  Mutex.lock t.pool_lock;
  let frame =
    match Table.find_opt t.table k with
    | Some idx ->
        let f = t.frames.(idx) in
        if f.dirty && Mutex.try_lock f.lock then Some f else None
    | None -> None
  in
  Mutex.unlock t.pool_lock;
  match frame with
  | Some f ->
      Fun.protect ~finally:(fun () -> Mutex.unlock f.lock) (fun () ->
          write_back t f);
      true
  | None -> false

let flush_all t =
  Array.iter
    (fun f ->
      Mutex.lock f.lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock f.lock) (fun () ->
          write_back t f))
    t.frames

let purge_device t dev =
  Mutex.lock t.pool_lock;
  Array.iter
    (fun f ->
      match f.device with
      | Some d when Device.id d = Device.id dev ->
          if f.fixes > 0 then begin
            Mutex.unlock t.pool_lock;
            invalid_arg "Bufpool.purge_device: page still fixed"
          end;
          Table.remove t.table (key d f.page);
          f.device <- None;
          f.page <- -1;
          f.data <- f.own;
          f.dirty <- false
      | _ -> ())
    t.frames;
  Mutex.unlock t.pool_lock

let stats t =
  {
    hits = Atomic.get t.n_hits;
    misses = Atomic.get t.n_misses;
    evictions = Atomic.get t.n_evictions;
    writebacks = Atomic.get t.n_writebacks;
    restarts = Atomic.get t.n_restarts;
  }

let frames_total t = Array.length t.frames
let mode t = t.md

let leaked_fixes t =
  Mutex.lock t.pool_lock;
  let n = Array.fold_left (fun acc f -> acc + f.fixes) 0 t.frames in
  Mutex.unlock t.pool_lock;
  n

let leak_report t =
  Mutex.lock t.pool_lock;
  let leaks =
    Array.fold_left
      (fun acc f ->
        if f.fixes > 0 then
          Printf.sprintf "frame %d: %s page %d fixed %d times" f.index
            (match f.device with Some d -> Device.name d | None -> "<none>")
            f.page f.fixes
          :: acc
        else acc)
      [] t.frames
  in
  Mutex.unlock t.pool_lock;
  String.concat "\n" (List.rev leaks)

let assert_quiescent ?(what = "buffer pool") t =
  let n = leaked_fixes t in
  if n > 0 then
    failwith
      (Printf.sprintf "%s: %d leaked buffer fix(es)\n%s" what n (leak_report t))
