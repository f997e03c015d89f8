module Injector = Volcano_fault.Injector

type mode = Two_level | Single_global

exception Buffer_exhausted

type frame = {
  index : int;
  mutable device : Device.t option;
  mutable page : int;
  data : Bytes.t;
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
  frames : frame array;
  table : int Table.t; (* key (device, page) -> frame index *)
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

let create ?(mode = Two_level) ~frames ~page_size () =
  assert (frames > 0);
  let make_frame index =
    {
      index;
      device = None;
      page = -1;
      data = Bytes.make page_size '\000';
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
    frames = Array.init frames make_frame;
    table = Table.create (frames * 2);
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

(* Fill a frame after a miss: read the page, or zero a fresh one. *)
let load dev page ~fresh f =
  if fresh then Bytes.fill f.data 0 (Bytes.length f.data) '\000'
  else Device.read dev ~page f.data

(* Pick the least recently used unfixed frame whose descriptor lock is free.
   Caller holds the pool lock; on success the victim's descriptor lock is
   held and the frame is off the LRU chain, but it REMAINS in the hash
   table: a concurrent fix of the old page must find the descriptor and
   fail its test-and-lock (then restart) rather than re-read a page whose
   write-back is still in flight. *)
let claim_victim t =
  let rec walk idx =
    if idx < 0 then None
    else
      let f = t.frames.(idx) in
      if Mutex.try_lock f.lock then begin
        lru_remove t f;
        Some f
      end
      else walk f.lru_next
  in
  walk t.lru_head

let write_back t f =
  match f.device with
  | Some dev when f.dirty ->
      Device.write dev ~page:f.page f.data;
      f.dirty <- false;
      Atomic.incr t.n_writebacks
  | _ -> ()

(* The core fix path, for [page]'s table key [k].  [fresh]: the page is
   new, zero it on a miss instead of reading it. *)
let rec fix_loop t dev page k ~fresh ~attempts =
  Mutex.lock t.pool_lock;
  match Table.find t.table k with
  | idx ->
      let f = t.frames.(idx) in
      if Mutex.try_lock f.lock then begin
        (* Atomic test-and-lock succeeded: the descriptor is quiescent. *)
        Mutex.unlock f.lock;
        if f.fixes = 0 then lru_remove t f;
        f.fixes <- f.fixes + 1;
        Atomic.incr t.n_hits;
        Mutex.unlock t.pool_lock;
        f
      end
      else begin
        (* Someone is reading or replacing this cluster: release, delay,
           restart — including the hash-table lookup (section 4.5). *)
        Atomic.incr t.n_restarts;
        Mutex.unlock t.pool_lock;
        Domain.cpu_relax ();
        fix_loop t dev page k ~fresh ~attempts
      end
  | exception Not_found -> (
      match claim_victim t with
      | None ->
          Mutex.unlock t.pool_lock;
          if attempts > 10_000 then raise Buffer_exhausted;
          Domain.cpu_relax ();
          fix_loop t dev page k ~fresh ~attempts:(attempts + 1)
      | Some f ->
          Mutex.unlock t.pool_lock;
          (* Clean the victim under its descriptor lock, with no pool lock
             held and its old mapping still visible.  If the write-back
             dies (a real I/O error or an injected one), the victim must
             go back on the LRU with its descriptor lock released — a
             locked descriptor makes every later fix of its page spin in
             the restart loop forever. *)
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
            (match f.device with
            | Some odev ->
                Table.remove t.table (key odev f.page);
                Atomic.incr t.n_evictions
            | None -> ());
            Table.replace t.table k f.index;
            f.device <- Some dev;
            f.page <- page;
            f.fixes <- 1;
            Atomic.incr t.n_misses;
            Mutex.unlock t.pool_lock;
            (* I/O happens under the descriptor lock only.  A failed load
               (injected or real read error) must undo the mapping and
               free the frame, or the page becomes permanently unfixable:
               its descriptor lock would never be released. *)
            f.dirty <- false;
            (try load dev page ~fresh f
             with exn ->
               Mutex.lock t.pool_lock;
               Table.remove t.table k;
               f.device <- None;
               f.page <- -1;
               f.fixes <- 0;
               lru_append t f;
               Mutex.unlock t.pool_lock;
               Mutex.unlock f.lock;
               raise exn);
            Mutex.unlock f.lock;
            f
          end)

let fix_general t dev page ~fresh =
  let k = key dev page in
  (* Consulted before any pool state changes: an injected denial models a
     transient out-of-buffer condition and leaks nothing. *)
  Injector.hit t.faults Volcano_fault.Bufpool_fix;
  match t.md with
  | Two_level -> fix_loop t dev page k ~fresh ~attempts:0
  | Single_global ->
      Mutex.lock t.pool_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.pool_lock)
        (fun () ->
          match Table.find t.table k with
          | idx ->
              let f = t.frames.(idx) in
              if f.fixes = 0 then lru_remove t f;
              f.fixes <- f.fixes + 1;
              Atomic.incr t.n_hits;
              f
          | exception Not_found -> (
              let rec victim idx =
                if idx < 0 then raise Buffer_exhausted
                else
                  let f = t.frames.(idx) in
                  if f.fixes = 0 then f else victim f.lru_next
              in
              let f = victim t.lru_head in
              lru_remove t f;
              (match f.device with
              | Some odev ->
                  (* Write back before unmapping, restoring the frame on
                     failure so the pool stays consistent. *)
                  (if f.dirty then
                     try
                       Device.write odev ~page:f.page f.data;
                       f.dirty <- false;
                       Atomic.incr t.n_writebacks
                     with exn ->
                       lru_append t f;
                       raise exn);
                  Table.remove t.table (key odev f.page);
                  Atomic.incr t.n_evictions
              | None -> ());
              Table.replace t.table k f.index;
              f.device <- Some dev;
              f.page <- page;
              f.fixes <- 1;
              f.dirty <- false;
              Atomic.incr t.n_misses;
              (try load dev page ~fresh f
               with exn ->
                 Table.remove t.table k;
                 f.device <- None;
                 f.page <- -1;
                 f.fixes <- 0;
                 lru_append t f;
                 raise exn);
              f))

let fix t dev page = fix_general t dev page ~fresh:false

let fix_new t dev page =
  let f = fix_general t dev page ~fresh:true in
  f.dirty <- true;
  f

let unfix t f =
  Mutex.lock t.pool_lock;
  if f.fixes <= 0 then begin
    Mutex.unlock t.pool_lock;
    invalid_arg "Bufpool.unfix: frame is not fixed"
  end;
  f.fixes <- f.fixes - 1;
  if f.fixes = 0 then lru_append t f;
  Mutex.unlock t.pool_lock

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
