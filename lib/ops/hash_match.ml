module Iterator = Volcano.Iterator
module Batch = Volcano.Batch
module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Support = Volcano_tuple.Support
module Serial = Volcano_tuple.Serial
module Heap_file = Volcano_storage.Heap_file

let match_tag = Atomic.make 0

(* A build column: an unboxed [int array] while every value stored in it
   is an [Int].  Its first other value demotes it, once, to a [Value.t
   array] holding its prefix boxed.  Slots [0, n) of a table are live. *)
type column = Ints of int array | Boxed of Value.t array

let get column i =
  match column with
  | Ints a -> Value.Int (Array.unsafe_get a i)
  | Boxed a -> Array.unsafe_get a i

(* Build row [i] of [data] after [lead] leading [Null]s (outer-join
   padding).  An int column's value is boxed fresh. *)
let row data ~lead i =
  let w = Array.length data in
  let out = Array.make (lead + w) Value.Null in
  for c = 0 to w - 1 do
    Array.unsafe_set out (lead + c) (get (Array.unsafe_get data c) i)
  done;
  out

(* The key table, built in two passes: [collect] splits the build rows
   into columns, then [index] sizes every other array from the exact row
   count, once.  Rows are numbered by arrival.  A key lives at its first
   row: the bucket chain links key rows only, and each key row heads a
   [dup] chain of the rows sharing its key, in arrival order.  Keys are
   hashed and compared in place on the columns, so the table holds no
   block per row or per key — a handful of flat arrays. *)
type table = {
  cols : int array; (* the key columns of a build row *)
  data : column array; (* one per build column, in row order *)
  share : int array;
      (* per build column: the probe column equal to it at a match, or -1 *)
  n : int;
  heads : int array; (* bucket -> its first key row, or -1 *)
  hash : int array; (* per row: its key's [Key_hash.cols_hash] *)
  next : int array; (* per key row: the next key row in its bucket, or -1 *)
  dup : int array; (* per row: the next row with the same key, or -1 *)
  count : int array; (* per key row: rows with its key; 0 at other rows *)
  probes : int array; (* per key row: probe tuples seen with its key *)
  last : int array; (* per key row: the tail of its [dup] chain *)
}

(* [Key_hash.cols_hash] of build row [i]'s key, read from the columns. *)
let row_hash t i =
  let h = ref 17 in
  for j = 0 to Array.length t.cols - 1 do
    h :=
      (!h * 31)
      +
      match t.data.(Array.unsafe_get t.cols j) with
      | Ints a -> Key_hash.int_mix a.(i)
      | Boxed a -> Key_hash.slot_hash a.(i)
  done;
  !h

(* Top-level recursions, not closures over the keys: these run once per
   visited bucket entry.  Slot equality is [Key_hash.slot_equal]'s; an
   int column holds only [Int]s, so no other value equals its slot. *)
let rec probe_equal t pcols tuple i j =
  j >= Array.length pcols
  || (match t.data.(Array.unsafe_get t.cols j) with
     | Ints a -> (
         match tuple.(Array.unsafe_get pcols j) with
         | Value.Int x -> x = a.(i)
         | _ -> false)
     | Boxed a -> Key_hash.slot_equal tuple.(Array.unsafe_get pcols j) a.(i))
     && probe_equal t pcols tuple i (j + 1)

let rec rows_equal t i k j =
  j >= Array.length t.cols
  || (match t.data.(Array.unsafe_get t.cols j) with
     | Ints a -> a.(i) = a.(k)
     | Boxed a -> Key_hash.slot_equal a.(i) a.(k))
     && rows_equal t i k (j + 1)

(* The key row whose key equals [tuple]'s [pcols] (hashed [h]), or -1.
   A lookup allocates nothing. *)
let find t h pcols tuple =
  let k = ref (Array.unsafe_get t.heads (h land (Array.length t.heads - 1))) in
  while !k >= 0 && not (t.hash.(!k) = h && probe_equal t pcols tuple !k 0) do
    k := t.next.(!k)
  done;
  !k

(* The same, for the key of build row [i]. *)
let find_row t h i =
  let k = ref (Array.unsafe_get t.heads (h land (Array.length t.heads - 1))) in
  while !k >= 0 && not (t.hash.(!k) = h && rows_equal t i !k 0) do
    k := t.next.(!k)
  done;
  !k

let rec slots_for n s = if s >= n then s else slots_for n (2 * s)

(* The second pass: every array sized from [n], no growth, no rehash.
   [pcols] are the probe's key columns, pairwise with [cols]. *)
let index ~pcols ~cols data n =
  let slots = slots_for n 1024 in
  let share = Array.make (Array.length data) (-1) in
  Array.iteri
    (fun j c -> if c < Array.length share then share.(c) <- pcols.(j))
    cols;
  let t =
    {
      cols;
      data;
      share;
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
    let h = row_hash t i in
    t.hash.(i) <- h;
    let k = find_row t h i in
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
let empty = index ~pcols:[||] ~cols:[||] [||] 0

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
  left_arity : int; (* outer-join padding *)
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

(* A match: [tuple]'s values, then build row [i].  At a key column the
   probe's value equals the build key, and at an int column it is an
   [Int], so the output shares the probe's box there. *)
let joined t tuple i =
  let lw = Array.length tuple in
  let out = Array.make (lw + Array.length t.data) Value.Null in
  Array.blit tuple 0 out 0 lw;
  for c = 0 to Array.length t.data - 1 do
    let p = Array.unsafe_get t.share c in
    Array.unsafe_set out (lw + c)
      (match Array.unsafe_get t.data c with
      | Ints _ when p >= 0 -> tuple.(p)
      | column -> get column i)
  done;
  out

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
          push core (joined t tuple !i);
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
  let emit_first m ~lead =
    let i = ref k and m = ref m in
    while !m > 0 do
      push core (row t.data ~lead !i);
      i := t.dup.(!i);
      decr m
    done
  in
  match core.kind with
  | Match_op.Right_outer | Match_op.Full_outer ->
      if t.probes.(k) = 0 then emit_first t.count.(k) ~lead:core.left_arity
  | Match_op.Union | Match_op.Anti_difference ->
      emit_first (t.count.(k) - t.probes.(k)) ~lead:0
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

(* Store [v] at row [i] of column [c].  An int column's first other
   value boxes its prefix into a [Value.t array] of the same capacity. *)
let store data c i v =
  match (Array.unsafe_get data c, v) with
  | Ints a, Value.Int x -> Array.unsafe_set a i x
  | Boxed a, v -> Array.unsafe_set a i v
  | Ints a, v ->
      let b = Array.make (Array.length a) Value.Null in
      for j = 0 to i - 1 do
        Array.unsafe_set b j (Value.Int (Array.unsafe_get a j))
      done;
      Array.unsafe_set b i v;
      Array.unsafe_set data c (Boxed b)

(* A column at twice its capacity.  An int column copies with plain
   stores: a blit into the major heap would run the write barrier per
   slot. *)
let grow = function
  | Ints a ->
      let b = Array.make (2 * Array.length a) 0 in
      for j = 0 to Array.length a - 1 do
        Array.unsafe_set b j (Array.unsafe_get a j)
      done;
      Ints b
  | Boxed a ->
      let b = Array.make (2 * Array.length a) Value.Null in
      Array.blit a 0 b 0 (Array.length a);
      Boxed b

(* The first pass: split the build side into columns, as wide as its
   first row, each growing by doubling.  A row is dropped once split, so
   the columns keep no tuple alive.  Returns the columns, the row count,
   and [None] when it fit ([build] is closed), or [Some t] when the
   capacity was exceeded at [t], which is not among the rows ([build] is
   still open). *)
let collect build ~capacity =
  Iterator.open_ build;
  let data = ref [||] and cap = ref 0 and n = ref 0 in
  let rec go () =
    match Iterator.next build with
    | None -> None
    | Some tuple when !n >= capacity -> Some tuple
    | Some tuple ->
        if !cap = 0 then begin
          cap := 64;
          data :=
            Array.init (Array.length tuple) (fun _ -> Ints (Array.make 64 0))
        end
        else if !n = !cap then begin
          cap := 2 * !cap;
          data := Array.map grow !data
        end;
        let data = !data in
        if Array.length tuple <> Array.length data then
          invalid_arg "Hash_match: build rows of different widths";
        for c = 0 to Array.length data - 1 do
          store data c !n (Array.unsafe_get tuple c)
        done;
        incr n;
        go ()
  in
  match go () with
  | None ->
      Iterator.close build;
      (!data, !n, None)
  | Some _ as overflow -> (!data, !n, overflow)
  | exception exn ->
      (* A failing build input must not stay open: the consumer's close
         has no open state to release yet. *)
      (try Iterator.close build with _ -> ());
      raise exn

(* The build side the Grace path re-reads after an overflow: rows
   [0, n) in arrival order, rebuilt from the columns, the tuple that
   overflowed, then whatever [build] still holds.  [build] is already
   open; closing the replay closes it, once, and lets go of the
   columns. *)
let replay data n overflow build =
  let data = ref data and pos = ref 0 and live = ref true in
  Iterator.make
    ~open_:(fun () -> pos := 0)
    ~next:(fun () ->
      let i = !pos in
      if i > n then Iterator.next build
      else begin
        pos := i + 1;
        Some (if i < n then row !data ~lead:0 i else overflow)
      end)
    ~close:(fun () ->
      if !live then begin
        live := false;
        data := [||];
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
      left_arity;
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
    | data, n, Some overflow -> grace (replay data n overflow build)
    | data, n, None ->
        core.table <-
          index ~pcols:core.left_cols ~cols:core.right_cols data n;
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
