module Iterator = Volcano.Iterator
module Heap_file = Volcano_storage.Heap_file
module Serial = Volcano_tuple.Serial
module Binheap = Volcano_util.Binheap

type spill = {
  device : Volcano_storage.Device.t;
  buffer : Volcano_storage.Bufpool.t;
}

let run_counter = Atomic.make 0
let runs_spilled () = Atomic.get run_counter

(* A sorted run: either resident or a spilled heap file. *)
type run = In_memory of Volcano_tuple.Tuple.t array | Spilled of Heap_file.t

let spill_run spill tuples =
  let id = Atomic.fetch_and_add run_counter 1 in
  let file =
    Heap_file.create ~buffer:spill.buffer ~device:spill.device
      ~name:(Printf.sprintf "__sort_run_%d" id)
  in
  Array.iter
    (fun tuple ->
      let _ = Heap_file.insert file (Serial.encode_string tuple) in
      ())
    tuples;
  Spilled file

type run_cursor = {
  mutable head : Volcano_tuple.Tuple.t option;
  advance : unit -> Volcano_tuple.Tuple.t option;
  cleanup : unit -> unit;
}

let cursor_of_run run =
  match run with
  | In_memory tuples ->
      let pos = ref 0 in
      let advance () =
        if !pos >= Array.length tuples then None
        else begin
          let t = tuples.(!pos) in
          incr pos;
          Some t
        end
      in
      let c = { head = None; advance; cleanup = (fun () -> ()) } in
      c.head <- advance ();
      c
  | Spilled file ->
      let scan = Heap_file.scan file in
      let advance () = Heap_file.next_in_frame scan Serial.decode_slice in
      let cleanup () =
        Heap_file.close_cursor scan;
        Heap_file.drop file
      in
      let c = { head = None; advance; cleanup } in
      c.head <- advance ();
      c

(* Failure-path cleanup.  Dropping twice is safe (an emptied file's page
   directory is empty), so best-effort cleanup may overlap. *)
let drop_run = function
  | Spilled file -> ( try Heap_file.drop file with _ -> ())
  | In_memory _ -> ()

(* Build cursors for every run; if a later one fails to open (e.g. an
   injected fix denial while pinning the run's first page), release the
   already-built cursors so their pinned pages do not leak. *)
let cursors_of_runs runs =
  let built = ref [] in
  try
    Array.of_list
      (List.map
         (fun r ->
           let c = cursor_of_run r in
           built := c :: !built;
           c)
         runs)
  with exn ->
    List.iter (fun c -> try c.cleanup () with _ -> ()) !built;
    raise exn

(* Merge a batch of runs into one stream.  The heap orders cursors by their
   head tuple; ties broken by an index to keep the comparison total. *)
let merge_cursors ~cmp cursors =
  let heap =
    Binheap.create ~cmp:(fun (a, ia) (b, ib) ->
        let c = cmp a b in
        if c <> 0 then c else compare (ia : int) ib)
  in
  Array.iteri
    (fun i c -> match c.head with Some t -> Binheap.push heap (t, i) | None -> ())
    cursors;
  fun () ->
    match Binheap.pop heap with
    | None -> None
    | Some (tuple, i) ->
        let cursor = cursors.(i) in
        cursor.head <- cursor.advance ();
        (match cursor.head with
        | Some t -> Binheap.push heap (t, i)
        | None -> ());
        Some tuple

let rec take n xs =
  if n = 0 then ([], xs)
  else
    match xs with
    | [] -> ([], [])
    | x :: rest ->
        let batch, remainder = take (n - 1) rest in
        (x :: batch, remainder)

(* Cascaded merge: reduce the run list to at most [fan_in] runs, then give
   back the final single-level merge.  A failure mid-merge (a device fault
   while reading or spilling) drops every remaining run so that no pinned
   page survives the wreck. *)
let reduce_runs ~cmp ~fan_in ~spill runs =
  if List.length runs <= fan_in then runs
  else
    match spill with
    | None ->
        (* Cannot spill intermediate merges; merge everything at once. *)
        runs
    | Some sp ->
        let current = ref runs in
        (try
           while List.length !current > fan_in do
             let batch, rest = take fan_in !current in
             let cursors = cursors_of_runs batch in
             let merged =
               try
                 let pull = merge_cursors ~cmp cursors in
                 let collected = ref [] in
                 let rec drain () =
                   match pull () with
                   | None -> ()
                   | Some t ->
                       collected := t :: !collected;
                       drain ()
                 in
                 drain ();
                 Array.iter (fun c -> c.cleanup ()) cursors;
                 spill_run sp (Array.of_list (List.rev !collected))
               with exn ->
                 Array.iter (fun c -> try c.cleanup () with _ -> ()) cursors;
                 raise exn
             in
             current := rest @ [ merged ]
           done
         with exn ->
           List.iter drop_run !current;
           raise exn);
        !current

let iterator ?(run_capacity = 65536) ?(fan_in = 8) ?spill ~cmp input =
  if run_capacity < 1 then invalid_arg "Sort: run_capacity must be positive";
  if fan_in < 2 then invalid_arg "Sort: fan_in must be at least 2";
  let state = ref None in
  Iterator.make
    ~open_:(fun () ->
      Iterator.open_ input;
      let runs = ref [] in
      let pending = ref [] in
      let pending_len = ref 0 in
      let flush_pending () =
        if !pending_len > 0 then begin
          let tuples = Array.of_list (List.rev !pending) in
          Array.sort cmp tuples;
          let run =
            match spill with
            | Some sp when !runs <> [] || !pending_len >= run_capacity ->
                spill_run sp tuples
            | _ -> In_memory tuples
          in
          runs := !runs @ [ run ];
          pending := [];
          pending_len := 0
        end
      in
      let rec consume () =
        match Iterator.next input with
        | None -> ()
        | Some tuple ->
            pending := tuple :: !pending;
            incr pending_len;
            if !pending_len >= run_capacity then flush_pending ();
            consume ()
      in
      (* [open_] drains the whole input, so a failure anywhere in it — the
         input stream dying, a device fault while spilling, a fix denial
         while reopening a run — must close the input and drop the spilled
         runs here: the caller will never see a state to close. *)
      let input_open = ref true in
      try
        consume ();
        flush_pending ();
        input_open := false;
        Iterator.close input;
        let reduced = reduce_runs ~cmp ~fan_in ~spill !runs in
        runs := reduced;
        let cursors = cursors_of_runs reduced in
        let pull = merge_cursors ~cmp cursors in
        state := Some (pull, cursors)
      with exn ->
        if !input_open then (try Iterator.close input with _ -> ());
        List.iter drop_run !runs;
        raise exn)
    ~next:(fun () ->
      match !state with
      | None -> invalid_arg "Sort: not open"
      | Some (pull, _) -> pull ())
    ~close:(fun () ->
      match !state with
      | None -> ()
      | Some (_, cursors) ->
          (* Best-effort: one cursor failing to drop its run (e.g. an
             injected fault on the chain walk) must not strand the other
             cursors' pinned pages. *)
          Array.iter (fun c -> try c.cleanup () with _ -> ()) cursors;
          state := None)
