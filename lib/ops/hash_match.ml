module Iterator = Volcano.Iterator
module Batch = Volcano.Batch
module Tuple = Volcano_tuple.Tuple
module Value = Volcano_tuple.Value
module Support = Volcano_tuple.Support
module Serial = Volcano_tuple.Serial
module Heap_file = Volcano_storage.Heap_file

let match_tag = Atomic.make 0

(* One build key: its rows in insertion order, and the probe bookkeeping
   that the leftover-emitting kinds read once the probe side ends. *)
type entry = {
  key : Tuple.t;
  hash : int;
  mutable rows : Tuple.t array; (* [0, count) live, doubled when full *)
  mutable count : int;
  mutable probes : int; (* left tuples seen with this key *)
  mutable matched : bool;
}

(* The key table: chained buckets over a power-of-two array, hashed with
   [Key_hash] (an int mix, not [Tuple.hash]'s FNV).  Entries are also
   listed in first-seen order, so leftovers drain deterministically and
   never in hash order. *)
type table = {
  mutable buckets : entry list array;
  mutable size : int;
  mutable order : entry list; (* first-seen order, reversed *)
}

let table ~slots = { buckets = Array.make slots []; size = 0; order = [] }

(* [find]'s miss: compared by identity, so a probe allocates nothing. *)
let absent =
  { key = [||]; hash = 0; rows = [||]; count = 0; probes = 0; matched = false }

(* Probes read their key columns in place: no key tuple per probe. *)
let find t cols tuple =
  let h = Key_hash.cols_hash cols tuple in
  let rec scan = function
    | [] -> absent
    | e :: rest ->
        if e.hash = h && Key_hash.cols_match e.key cols tuple then e
        else scan rest
  in
  scan (Array.unsafe_get t.buckets (h land (Array.length t.buckets - 1)))

let grow t =
  let grown = Array.make (2 * Array.length t.buckets) [] in
  let mask = Array.length grown - 1 in
  List.iter
    (fun e -> grown.(e.hash land mask) <- e :: grown.(e.hash land mask))
    t.order;
  t.buckets <- grown

let insert t cols tuple =
  let h = Key_hash.cols_hash cols tuple in
  let idx = h land (Array.length t.buckets - 1) in
  let rec scan = function
    | [] ->
        let e =
          {
            key = Array.map (fun c -> tuple.(c)) cols;
            hash = h;
            rows = [| tuple |];
            count = 1;
            probes = 0;
            matched = false;
          }
        in
        t.buckets.(idx) <- e :: t.buckets.(idx);
        t.order <- e :: t.order;
        t.size <- t.size + 1;
        if t.size > 2 * Array.length t.buckets then grow t
    | e :: rest ->
        if e.hash = h && Key_hash.cols_match e.key cols tuple then begin
          if e.count = Array.length e.rows then begin
            let rows = Array.make (2 * e.count) tuple in
            Array.blit e.rows 0 rows 0 e.count;
            e.rows <- rows
          end;
          e.rows.(e.count) <- tuple;
          e.count <- e.count + 1
        end
        else scan rest
  in
  scan t.buckets.(idx)

(* ------------------------------------------------------------------ *)
(* The build/probe/drain core                                          *)

(* One match in flight.  A step may emit at most [budget] records; the
   surplus (a probe tuple matching several build rows, or one entry's
   leftovers) parks in [parked] and goes out first on the next step, in
   order. *)
type core = {
  kind : Match_op.kind;
  left_cols : int array;
  right_cols : int array;
  left_nulls : Tuple.t; (* outer-join padding *)
  right_nulls : Tuple.t;
  mutable table : table;
  mutable leftovers : entry list; (* entries the drain has yet to visit *)
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
  let e = find core.table core.left_cols tuple in
  let hit = e != absent in
  if hit then begin
    e.matched <- true;
    e.probes <- e.probes + 1
  end;
  match core.kind with
  | Match_op.Join | Match_op.Left_outer | Match_op.Right_outer
  | Match_op.Full_outer ->
      if hit then
        for i = 0 to e.count - 1 do
          push core (Tuple.concat tuple (Array.unsafe_get e.rows i))
        done
      else if core.kind = Match_op.Left_outer || core.kind = Match_op.Full_outer
      then push core (Tuple.concat tuple core.right_nulls)
  | Match_op.Semi -> if hit then push core tuple
  | Match_op.Anti -> if not hit then push core tuple
  | Match_op.Intersection -> if hit && e.probes <= e.count then push core tuple
  | Match_op.Difference ->
      if not (hit && e.probes <= e.count) then push core tuple
  | Match_op.Union -> push core tuple
  | Match_op.Anti_difference -> ()

(* After the probe side ends: build rows no probe accounted for. *)
let drain_entry core e =
  match core.kind with
  | Match_op.Right_outer | Match_op.Full_outer ->
      if not e.matched then
        for i = 0 to e.count - 1 do
          push core (Tuple.concat core.left_nulls e.rows.(i))
        done
  | Match_op.Union | Match_op.Anti_difference ->
      for i = 0 to e.count - e.probes - 1 do
        push core e.rows.(i)
      done
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

(* Load the build side into the table.  [None]: it fit, and [build] is
   closed.  [Some t]: the capacity was exceeded at [t], which is not in
   the table, and [build] is still open. *)
let load core build ~capacity =
  Iterator.open_ build;
  let rec go n =
    match Iterator.next build with
    | None -> None
    | Some tuple when n >= capacity -> Some tuple
    | Some tuple ->
        insert core.table core.right_cols tuple;
        go (n + 1)
  in
  match go 0 with
  | None ->
      Iterator.close build;
      None
  | Some _ as overflow -> overflow
  | exception exn ->
      (* A failing build input must not stay open: the consumer's close
         has no open state to release yet. *)
      (try Iterator.close build with _ -> ());
      raise exn

(* The build side the Grace path re-reads after an overflow: the table's
   rows (first-seen key order, rows in insertion order), the tuple that
   overflowed, then whatever [build] still holds.  [build] is already
   open; closing the replay closes it, once. *)
let replay core overflow build =
  let entries = ref [] and pos = ref 0 and rest = ref [ overflow ] in
  let live = ref true in
  Iterator.make
    ~open_:(fun () ->
      entries := List.rev core.table.order;
      pos := 0)
    ~next:(fun () ->
      let rec next () =
        match !entries with
        | e :: more ->
            if !pos < e.count then begin
              incr pos;
              Some e.rows.(!pos - 1)
            end
            else begin
              entries := more;
              pos := 0;
              next ()
            end
        | [] -> (
            match !rest with
            | t :: more ->
                rest := more;
                Some t
            | [] -> Iterator.next build)
      in
      next ())
    ~close:(fun () ->
      if !live then begin
        live := false;
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
          Heap_file.insert files.(p) (Bytes.to_string (Serial.encode tuple))
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
      table = table ~slots:1;
      leftovers = [];
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
    core.table <- table ~slots:1;
    core.leftovers <- [];
    Queue.clear core.parked
  in
  let grace overflow =
    let right = replay core overflow build in
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
    core.table <- table ~slots:1024;
    match load core build ~capacity with
    | Some overflow -> grace overflow
    | None ->
        (try probe_side.Batch.reset ()
         with exn ->
           release ();
           raise exn);
        phase := `Probe
    | exception exn ->
        release ();
        raise exn
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
                core.leftovers <-
                  (if has_leftovers kind then List.rev core.table.order else []);
                phase := `Drain
              end
          | `Drain -> (
              match core.leftovers with
              | e :: more ->
                  core.leftovers <- more;
                  drain_entry core e
              | [] -> live := false)
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
