module Heap_file = Volcano_storage.Heap_file
module Serial = Volcano_tuple.Serial
module Iterator = Volcano.Iterator

(* Every heap scan decodes straight out of the pinned frame: [cols]
   selects a projected decode that steps over the fields it drops, and
   [slice = (rank, ranks)] restricts the cursor to the pages that rank
   owns. *)
let decoder = function
  | None -> Serial.decode_slice
  | Some cols -> Serial.decode_projected (Serial.projection cols)

let open_cursor ?slice file =
  match slice with
  | None -> Heap_file.scan file
  | Some (rank, ranks) -> Heap_file.slice file ~rank ~ranks

let heap_filtered ?slice ?cols ~pred file =
  let decode = decoder cols in
  let cursor = ref None in
  Iterator.make
    ~open_:(fun () -> cursor := Some (open_cursor ?slice file))
    ~next:(fun () ->
      match !cursor with
      | None -> invalid_arg "Scan.heap: not open"
      | Some c ->
          let rec step () =
            match Heap_file.next_in_frame c decode with
            | None -> None
            | Some tuple as hit -> if pred tuple then hit else step ()
          in
          step ())
    ~close:(fun () ->
      match !cursor with
      | None -> ()
      | Some c ->
          Heap_file.close_cursor c;
          cursor := None)

let heap ?slice ?cols file =
  heap_filtered ?slice ?cols ~pred:(fun _ -> true) file

(* The batch source for fused scan chains: the per-record decode stays
   (records are variable-length on the page), but the iterator protocol
   above it is gone — one [step] call refills a whole batch, decoding
   each record straight from the cursor's in-frame step, so a row costs
   the tuple it emits and nothing else. *)
let heap_cursor ?slice ?cols file =
  let decode = decoder cols in
  let cursor = ref None in
  {
    Volcano.Batch.reset = (fun () -> cursor := Some (open_cursor ?slice file));
    step =
      (fun ~emit ~max ->
        match !cursor with
        | None -> invalid_arg "Scan.heap_cursor: not open"
        | Some c ->
            let n = ref 0 in
            while !n < max && Heap_file.advance c do
              emit
                (decode (Heap_file.data c) ~off:(Heap_file.off c)
                   ~len:(Heap_file.len c));
              incr n
            done;
            !n);
    stop =
      (fun () ->
        match !cursor with
        | None -> ()
        | Some c ->
            Heap_file.close_cursor c;
            cursor := None);
  }

let btree tree ~lo ~hi =
  let cursor = ref None in
  Iterator.make
    ~open_:(fun () -> cursor := Some (Volcano_btree.Btree.range tree ~lo ~hi))
    ~next:(fun () ->
      match !cursor with
      | None -> invalid_arg "Scan.btree: not open"
      | Some c -> (
          match Volcano_btree.Btree.next c with
          | None -> None
          | Some (_key, value) ->
              Some (Serial.decode_bytes (Bytes.of_string value))))
    ~close:(fun () ->
      match !cursor with
      | None -> ()
      | Some c ->
          Volcano_btree.Btree.close_cursor c;
          cursor := None)

let encode_rid rid =
  let buf = Bytes.create 12 in
  Bytes.set_int32_le buf 0 (Int32.of_int rid.Volcano_storage.Rid.device);
  Bytes.set_int32_le buf 4 (Int32.of_int rid.Volcano_storage.Rid.page);
  Bytes.set_int32_le buf 8 (Int32.of_int rid.Volcano_storage.Rid.slot);
  Bytes.to_string buf

let decode_rid s =
  let buf = Bytes.of_string s in
  Volcano_storage.Rid.make
    ~device:(Int32.to_int (Bytes.get_int32_le buf 0))
    ~page:(Int32.to_int (Bytes.get_int32_le buf 4))
    ~slot:(Int32.to_int (Bytes.get_int32_le buf 8))

let build_index ~tree ~key_of file =
  let count = ref 0 in
  Heap_file.iter file (fun rid record ->
      let tuple = Serial.decode_bytes (Bytes.of_string record) in
      Volcano_btree.Btree.insert tree ~key:(key_of tuple)
        ~value:(encode_rid rid);
      incr count);
  !count

let index_fetch ~tree ~file ~lo ~hi =
  let cursor = ref None in
  Iterator.make
    ~open_:(fun () -> cursor := Some (Volcano_btree.Btree.range tree ~lo ~hi))
    ~next:(fun () ->
      match !cursor with
      | None -> invalid_arg "Scan.index_fetch: not open"
      | Some c ->
          let rec step () =
            match Volcano_btree.Btree.next c with
            | None -> None
            | Some (_key, value) -> (
                match Heap_file.get file (decode_rid value) with
                | Some record -> Some (Serial.decode_bytes (Bytes.of_string record))
                | None -> step () (* deleted since indexing *))
          in
          step ())
    ~close:(fun () ->
      match !cursor with
      | None -> ()
      | Some c ->
          Volcano_btree.Btree.close_cursor c;
          cursor := None)

let materialize iterator ~into =
  Iterator.fold
    (fun count tuple ->
      let _ = Heap_file.insert into (Serial.encode_string tuple) in
      count + 1)
    0 iterator
