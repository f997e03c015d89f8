module Iterator = Volcano.Iterator
module Batch = Volcano.Batch
module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Support = Volcano_tuple.Support
module Serial = Volcano_tuple.Serial
module Heap_file = Volcano_storage.Heap_file

let match_tag = Atomic.make 0

(* The key table, built in two passes: [collect] appends the build rows
   to one growable array, then [index] sizes every other array from the
   exact row count, once.  Rows are numbered by arrival.  A key lives at
   its first row: the bucket chain links key rows only, and each key row
   heads a [dup] chain of the rows sharing its key, in arrival order.
   Keys are compared in place on the stored rows, so the table holds no
   block per row or per key — a handful of flat [int] arrays. *)
type table = {
  cols : int array; (* the key columns of a build row *)
  rows : Tuple.t array; (* [0, n) live, in arrival order *)
  n : int;
  heads : int array; (* bucket -> its first key row, or -1 *)
  hash : int array; (* per row: [Key_hash.cols_hash] of its key *)
  next : int array; (* per key row: the next key row in its bucket, or -1 *)
  dup : int array; (* per row: the next row with the same key, or -1 *)
  count : int array; (* per key row: rows with its key; 0 at other rows *)
  probes : int array; (* per key row: probe tuples seen with its key *)
  last : int array; (* per key row: the tail of its [dup] chain *)
}

(* The key row whose key equals [tuple]'s [cols] (hashed [h]), or -1.
   Reads both keys in place: a lookup allocates nothing. *)
let find t h cols tuple =
  let k = ref (Array.unsafe_get t.heads (h land (Array.length t.heads - 1))) in
  while
    !k >= 0
    && not
         (t.hash.(!k) = h
         && Key_hash.cols_equal cols tuple t.cols t.rows.(!k))
  do
    k := t.next.(!k)
  done;
  !k

let rec slots_for n s = if s >= n then s else slots_for n (2 * s)

(* The second pass: every array sized from [n], no growth, no rehash. *)
let index cols rows n =
  let slots = slots_for n 1024 in
  let t =
    {
      cols;
      rows;
      n;
      heads = Array.make slots (-1);
      hash = Array.make n 0;
      next = Array.make n (-1);
      dup = Array.make n (-1);
      count = Array.make n 0;
      probes = Array.make n 0;
      last = Array.make n 0;
    }
  in
  for i = 0 to n - 1 do
    let row = rows.(i) in
    let h = Key_hash.cols_hash cols row in
    t.hash.(i) <- h;
    let k = find t h cols row in
    if k < 0 then begin
      let b = h land (slots - 1) in
      t.next.(i) <- t.heads.(b);
      t.heads.(b) <- i;
      t.count.(i) <- 1;
      t.last.(i) <- i
    end
    else begin
      t.dup.(t.last.(k)) <- i;
      t.last.(k) <- i;
      t.count.(k) <- t.count.(k) + 1
    end
  done;
  t

(* A closed match's table: no rows, and nothing a probe could write. *)
let empty = index [||] [||] 0

(* ------------------------------------------------------------------ *)
(* The build/probe/drain core                                          *)

(* One match in flight.  A step may emit at most [budget] records; the
   surplus (a probe tuple matching several build rows, or one key's
   leftovers) parks in [parked] and goes out first on the next step, in
   order. *)
type core = {
  kind : Match_op.kind;
  left_cols : int array;
  right_cols : int array;
  left_nulls : Tuple.t; (* outer-join padding *)
  right_nulls : Tuple.t;
  mutable table : table;
  mutable drain_at : int; (* the next row the drain visits *)
  parked : Tuple.t Queue.t;
  mutable budget : int;
  mutable out : Tuple.t -> unit;
}

let push core tuple =
  if core.budget > 0 then begin
    core.budget <- core.budget - 1;
    core.out tuple
  end
  else Queue.push tuple core.parked

let probe core tuple =
  let t = core.table in
  let k =
    find t (Key_hash.cols_hash core.left_cols tuple) core.left_cols tuple
  in
  let hit = k >= 0 in
  if hit then t.probes.(k) <- t.probes.(k) + 1;
  match core.kind with
  | Match_op.Join | Match_op.Left_outer | Match_op.Right_outer
  | Match_op.Full_outer ->
      if hit then begin
        let i = ref k in
        while !i >= 0 do
          push core (Tuple.concat tuple (Array.unsafe_get t.rows !i));
          i := t.dup.(!i)
        done
      end
      else if core.kind = Match_op.Left_outer || core.kind = Match_op.Full_outer
      then push core (Tuple.concat tuple core.right_nulls)
  | Match_op.Semi -> if hit then push core tuple
  | Match_op.Anti -> if not hit then push core tuple
  | Match_op.Intersection ->
      if hit && t.probes.(k) <= t.count.(k) then push core tuple
  | Match_op.Difference ->
      if not (hit && t.probes.(k) <= t.count.(k)) then push core tuple
  | Match_op.Union -> push core tuple
  | Match_op.Anti_difference -> ()

(* After the probe side ends: the build rows of key row [k] that no probe
   accounted for. *)
let drain_key core k =
  let t = core.table in
  let emit_first m f =
    let i = ref k and m = ref m in
    while !m > 0 do
      push core (f t.rows.(!i));
      i := t.dup.(!i);
      decr m
    done
  in
  match core.kind with
  | Match_op.Right_outer | Match_op.Full_outer ->
      if t.probes.(k) = 0 then
        emit_first t.count.(k) (Tuple.concat core.left_nulls)
  | Match_op.Union | Match_op.Anti_difference ->
      emit_first (t.count.(k) - t.probes.(k)) Fun.id
  | Match_op.Join | Match_op.Left_outer | Match_op.Semi | Match_op.Anti
  | Match_op.Intersection | Match_op.Difference ->
      ()

let has_leftovers = function
  | Match_op.Right_outer | Match_op.Full_outer | Match_op.Union
  | Match_op.Anti_difference ->
      true
  | Match_op.Join | Match_op.Left_outer | Match_op.Semi | Match_op.Anti
  | Match_op.Intersection | Match_op.Difference ->
      false

(* The first pass: append the build side to one growable array.  Returns
   the rows, their count, and [None] when it fit ([build] is closed), or
   [Some t] when the capacity was exceeded at [t], which is not among the
   rows ([build] is still open). *)
let collect build ~capacity =
  Iterator.open_ build;
  let rows = ref (Array.make 64 [||]) and n = ref 0 in
  let rec go () =
    match Iterator.next build with
    | None -> None
    | Some tuple when !n >= capacity -> Some tuple
    | Some tuple ->
        if !n = Array.length !rows then begin
          let grown = Array.make (2 * !n) [||] in
          Array.blit !rows 0 grown 0 !n;
          rows := grown
        end;
        Array.unsafe_set !rows !n tuple;
        incr n;
        go ()
  in
  match go () with
  | None ->
      Iterator.close build;
      (!rows, !n, None)
  | Some _ as overflow -> (!rows, !n, overflow)
  | exception exn ->
      (* A failing build input must not stay open: the consumer's close
         has no open state to release yet. *)
      (try Iterator.close build with _ -> ());
      raise exn

(* The build side the Grace path re-reads after an overflow: rows
   [0, n) in arrival order, the tuple that overflowed, then whatever
   [build] still holds.  [build] is already open; closing the replay
   closes it, once, and lets go of the rows. *)
let replay rows n overflow build =
  let rows = ref rows and pos = ref 0 and live = ref true in
  Iterator.make
    ~open_:(fun () -> pos := 0)
    ~next:(fun () ->
      let i = !pos in
      if i > n then Iterator.next build
      else begin
        pos := i + 1;
        Some (if i < n then !rows.(i) else overflow)
      end)
    ~close:(fun () ->
      if !live then begin
        live := false;
        rows := [||];
        Iterator.close build
      end)

(* ------------------------------------------------------------------ *)
(* Grace partitioning                                                  *)

(* Route both inputs to per-partition files, then match each partition
   pair in memory.  Keys co-partition, so results concatenate. *)
let rec partitioned ~partitions ~spill ~kind ~left_key ~right_key ~left_arity
    ~right_arity ~left ~right =
  let hash_left = Support.hash_on left_key in
  let hash_right = Support.hash_on right_key in
  let tag = Atomic.fetch_and_add match_tag 1 in
  let make_files side =
    Array.init partitions (fun p ->
        Heap_file.create ~buffer:spill.Sort.buffer ~device:spill.Sort.device
          ~name:(Printf.sprintf "__match_%d_%s_%d" tag side p))
  in
  let spill_input files hash input =
    Iterator.iter
      (fun tuple ->
        let p = hash tuple mod partitions in
        let _ =
          Heap_file.insert files.(p) (Serial.encode_string tuple)
        in
        ())
      input
  in
  let left_files = ref [||] in
  let right_files = ref [||] in
  let current = ref None in
  let partition_index = ref 0 in
  let open_partition p =
    let sub =
      iterator ~kind ~left_key ~right_key ~left_arity ~right_arity
        (Scan.heap !left_files.(p))
        (Scan.heap !right_files.(p))
    in
    Iterator.open_ sub;
    current := Some sub
  in
  let drop_files () =
    (* Best-effort: a failing drop must not leave later files undropped. *)
    Array.iter (fun f -> try Heap_file.drop f with _ -> ()) !left_files;
    Array.iter (fun f -> try Heap_file.drop f with _ -> ()) !right_files
  in
  Iterator.make
    ~open_:(fun () ->
      try
        left_files := make_files "probe";
        right_files := make_files "build";
        spill_input !right_files hash_right right;
        spill_input !left_files hash_left left;
        partition_index := 0;
        open_partition 0
      with exn ->
        (* Drop the partition files on a failed open — the caller has no
           state to close yet.  (Dropping again from close is safe.) *)
        drop_files ();
        raise exn)
    ~next:(fun () ->
      let rec step () =
        match !current with
        | None -> None
        | Some sub -> (
            match Iterator.next sub with
            | Some tuple -> Some tuple
            | None ->
                Iterator.close sub;
                incr partition_index;
                if !partition_index >= partitions then begin
                  current := None;
                  None
                end
                else begin
                  open_partition !partition_index;
                  step ()
                end)
      in
      step ())
    ~close:(fun () ->
      (match !current with Some sub -> Iterator.close sub | None -> ());
      current := None;
      drop_files ())

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)

and cursor ?(build_capacity = max_int) ?(partitions = 16) ?spill
    ~kind ~left_key ~right_key ~left_arity ~right_arity
    (probe_side : Batch.cursor) build =
  let core =
    {
      kind;
      left_cols = Array.of_list left_key;
      right_cols = Array.of_list right_key;
      left_nulls = Array.make left_arity Value.Null;
      right_nulls = Array.make right_arity Value.Null;
      table = empty;
      drain_at = 0;
      parked = Queue.create ();
      budget = 0;
      out = ignore;
    }
  in
  let capacity = if Option.is_some spill then build_capacity else max_int in
  (* One emit closure for every step, so the probe chain's stages are
     composed onto it once. *)
  let on_probe = probe core in
  let phase = ref `Closed in
  let release () =
    core.table <- empty;
    Queue.clear core.parked
  in
  let grace right =
    let left = Batch.to_iterator ~batch_size:Batch.default_size probe_side in
    let g =
      partitioned ~partitions ~spill:(Option.get spill) ~kind ~left_key
        ~right_key ~left_arity ~right_arity ~left ~right
    in
    (try Iterator.open_ g
     with exn ->
       (try Iterator.close right with _ -> ());
       release ();
       raise exn);
    release ();
    phase := `Grace g
  in
  let reset () =
    match collect build ~capacity with
    | rows, n, Some overflow -> grace (replay rows n overflow build)
    | rows, n, None ->
        core.table <- index core.right_cols rows n;
        (try probe_side.Batch.reset ()
         with exn ->
           release ();
           raise exn);
        phase := `Probe
  in
  let step ~emit ~max =
    match !phase with
    | `Grace g ->
        let n = ref 0 in
        while
          !n < max
          &&
          match Iterator.next g with
          | Some tuple ->
              emit tuple;
              true
          | None -> false
        do
          incr n
        done;
        !n
    | `Closed -> invalid_arg "Hash_match: not open"
    | `Probe | `Drain ->
        core.out <- emit;
        core.budget <- max;
        while core.budget > 0 && not (Queue.is_empty core.parked) do
          core.budget <- core.budget - 1;
          emit (Queue.pop core.parked)
        done;
        let live = ref true in
        while !live && core.budget > 0 do
          match !phase with
          | `Probe ->
              if probe_side.Batch.step ~emit:on_probe ~max:core.budget = 0
              then begin
                probe_side.Batch.stop ();
                core.drain_at <- (if has_leftovers kind then 0 else core.table.n);
                phase := `Drain
              end
          | `Drain ->
              (* Key rows in ascending order: first-seen key order. *)
              let k = core.drain_at in
              if k >= core.table.n then live := false
              else begin
                core.drain_at <- k + 1;
                if core.table.count.(k) > 0 then drain_key core k
              end
          | `Closed | `Grace _ -> live := false
        done;
        max - core.budget
  in
  let stop () =
    let p = !phase in
    phase := `Closed;
    release ();
    match p with
    | `Probe -> probe_side.Batch.stop ()
    | `Grace g -> Iterator.close g
    | `Drain | `Closed -> ()
  in
  { Batch.reset; step; stop }

(* The record feed: the same driver over the record iterator [left],
   one output record per step. *)
and iterator ?build_capacity ?partitions ?spill ~kind ~left_key ~right_key
    ~left_arity ~right_arity left right =
  let driver =
    cursor ?build_capacity ?partitions ?spill ~kind ~left_key ~right_key
      ~left_arity ~right_arity (Batch.iterator_cursor left) right
  in
  let out = ref None in
  let emit tuple = out := Some tuple in
  Iterator.make ~open_:driver.Batch.reset
    ~next:(fun () ->
      if driver.Batch.step ~emit ~max:1 = 0 then None
      else begin
        let tuple = !out in
        out := None;
        tuple
      end)
    ~close:driver.Batch.stop
