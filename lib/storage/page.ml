let header_size = 16
let slot_size = 4

let n_slots page = Bytes.get_uint16_le page 0
let set_n_slots page n = Bytes.set_uint16_le page 0 n
let free_off page = Bytes.get_uint16_le page 2
let set_free_off page off = Bytes.set_uint16_le page 2 off
let next_page page = Int32.to_int (Bytes.get_int32_le page 4)
let set_next_page page p = Bytes.set_int32_le page 4 (Int32.of_int p)
let aux page = Int32.to_int (Bytes.get_int32_le page 8)
let set_aux page p = Bytes.set_int32_le page 8 (Int32.of_int p)
let kind page = Bytes.get_uint16_le page 12

let set_kind page k =
  if k < 0 || k > 0xffff then invalid_arg "Page.set_kind: kind out of range";
  Bytes.set_uint16_le page 12 k

(* Bytes 14..15 keep one more than the number of dead slots, so that an
   insert onto a page with none skips the directory scan.  A page
   formatted before the count was kept reads 0 there (its kind filled
   the whole word, and every kind fits 16 bits): its count is taken
   from the directory, and its first insert or delete records it. *)
let dead_field page = Bytes.get_uint16_le page 14
let set_dead_slots page d = Bytes.set_uint16_le page 14 (d + 1)

let init page ~kind =
  set_n_slots page 0;
  set_free_off page header_size;
  set_next_page page (-1);
  set_aux page (-1);
  set_kind page kind;
  set_dead_slots page 0

let slot_pos page i = Bytes.length page - (slot_size * (i + 1))

let slot_off page i = Bytes.get_uint16_le page (slot_pos page i)
let slot_len page i = Bytes.get_uint16_le page (slot_pos page i + 2)
let slot page i = (slot_off page i, slot_len page i)

let set_slot page i ~off ~len =
  let pos = slot_pos page i in
  Bytes.set_uint16_le page pos off;
  Bytes.set_uint16_le page (pos + 2) len

let dir_start page = Bytes.length page - (slot_size * n_slots page)

let free_space page =
  let v = dir_start page - free_off page in
  if v < 0 then 0 else v

let count_dead page =
  let n = ref 0 in
  for i = 0 to n_slots page - 1 do
    if slot_len page i = 0 then incr n
  done;
  !n

let dead_slots page =
  let d = dead_field page in
  if d > 0 then d - 1 else count_dead page

(* Every byte a compaction would free: the record area up to the
   directory, less the live records. *)
let total_free_space page =
  let live = ref 0 in
  for i = 0 to n_slots page - 1 do
    live := !live + slot_len page i
  done;
  max 0 (dir_start page - header_size - !live)

let read page i =
  if i < 0 || i >= n_slots page then None
  else
    let off, len = slot page i in
    if len = 0 then None else Some (Bytes.sub_string page off len)

let live_records page =
  let rec collect i acc =
    if i < 0 then acc
    else
      match read page i with
      | None -> collect (i - 1) acc
      | Some r -> collect (i - 1) ((i, r) :: acc)
  in
  collect (n_slots page - 1) []

let delete page i =
  if i < 0 || i >= n_slots page then false
  else
    let len = slot_len page i in
    if len = 0 then false
    else begin
      set_dead_slots page (dead_slots page + 1);
      set_slot page i ~off:0 ~len:0;
      true
    end

let compact page =
  let records = live_records page in
  let cursor = ref header_size in
  let staged =
    List.map
      (fun (i, r) ->
        let off = !cursor in
        cursor := !cursor + String.length r;
        (i, r, off))
      records
  in
  List.iter
    (fun (i, r, off) ->
      Bytes.blit_string r 0 page off (String.length r);
      set_slot page i ~off ~len:(String.length r))
    staged;
  set_free_off page !cursor

(* The slot is live before and after, so the dead-slot count does not
   change. *)
let replace page slot_no record =
  let len = String.length record in
  if len = 0 || len > 0xffff || slot_no < 0 || slot_no >= n_slots page then
    false
  else
    let old_off = slot_off page slot_no and old_len = slot_len page slot_no in
    if old_len = 0 then false
    else begin
      (* Release the old space for accounting... *)
      set_slot page slot_no ~off:0 ~len:0;
      if free_space page < len && total_free_space page >= len then
        (* ...compaction drops the old bytes, but success is now assured. *)
        compact page;
      if free_space page >= len then begin
        let off = free_off page in
        Bytes.blit_string record 0 page off len;
        set_free_off page (off + len);
        set_slot page slot_no ~off ~len;
        true
      end
      else begin
        (* No compaction ran (total free was insufficient), so the old
           bytes are untouched: restore the slot. *)
        set_slot page slot_no ~off:old_off ~len:old_len;
        false
      end
    end

(* The first dead slot, or -1.  A loop reading one length per slot: no
   pair per slot, and no search closure.  Run only when the page has a
   dead slot. *)
let find_dead_slot page =
  let n = n_slots page in
  let i = ref 0 in
  while !i < n && slot_len page !i <> 0 do
    incr i
  done;
  if !i < n then !i else -1

let insert_sub page src ~off:src_off ~len =
  if len = 0 || len > 0xffff then -1
  else begin
    let dead = dead_slots page in
    let reuse = if dead > 0 then find_dead_slot page else -1 in
    let need = if reuse >= 0 then len else len + slot_size in
    if free_space page < need && total_free_space page >= need then compact page;
    if free_space page < need then -1
    else begin
      let off = free_off page in
      Bytes.blit src src_off page off len;
      set_free_off page (off + len);
      let i =
        if reuse >= 0 then begin
          set_dead_slots page (dead - 1);
          reuse
        end
        else begin
          let i = n_slots page in
          set_n_slots page (i + 1);
          set_dead_slots page dead;
          i
        end
      in
      set_slot page i ~off ~len;
      i
    end
  end

let insert page record =
  insert_sub page (Bytes.unsafe_of_string record) ~off:0
    ~len:(String.length record)
