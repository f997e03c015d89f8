module Shard = Volcano_storage.Shard
module Heap_file = Volcano_storage.Heap_file
module Serial = Volcano_tuple.Serial
module Support = Volcano_tuple.Support

(* Partitioned stored tables: split a heap file into per-partition files
   named by {!Shard.partition_name} ("table#k", the same convention
   [Scan_table_slice] resolves at compile time) and record the placement
   in the environment's catalog.

   The catalog's [spec] is pure placement metadata — storage cannot
   depend on the tuple library, so range bounds live there as opaque
   Serial-encoded single-column tuples.  This module is where a spec
   becomes a row router again; [Volcano_net.Repart] does the identical
   interpretation on the worker side of a repartitioning edge, and the
   distributed differential suite pins the two to the same answers. *)

let encode_bound v = Serial.encode_string [| v |]
let decode_bound encoded = (Serial.decode_bytes (Bytes.of_string encoded)).(0)
let hash_spec cols = Shard.Hash cols

let range_spec ~col ~bounds =
  Shard.Range (col, Array.map encode_bound bounds)

(* Instantiate a spec as a router over [parts] partitions — the same
   [Support.Partition] functions a local exchange uses, so a stored hash
   partition and a hash repartitioning edge send a key the same way.
   Both answer in [\[0, parts)], so a loader takes the answer as it is,
   without a division per row. *)
let route spec ~parts =
  match spec with
  | Shard.Hash cols -> Support.Partition.hash ~consumers:parts ~on:cols ()
  | Shard.Range (col, bounds) ->
      Support.Partition.range ~consumers:parts ~on:col
        ~bounds:(Array.map decode_bound bounds) ()

let default_sites parts = Array.init parts Fun.id

(* Bulk loading: one appender per file ({!Heap_file.append}, which keeps
   each file's last page fixed across records) and one scratch buffer
   every record is encoded into, so a loaded record costs one encode and
   one copy into the page — no string per record, no fix per record. *)
let with_appenders files f =
  let appenders = Array.map Heap_file.appender files in
  let scratch = ref (Bytes.create 512) in
  let put k tuple =
    let len =
      match Serial.encode_into tuple !scratch ~pos:0 with
      | len -> len
      | exception Invalid_argument _ ->
          scratch := Bytes.create (2 * Serial.encoded_size tuple);
          Serial.encode_into tuple !scratch ~pos:0
    in
    Heap_file.append appenders.(k) !scratch ~off:0 ~len
  in
  Fun.protect
    ~finally:(fun () -> Array.iter Heap_file.close_appender appenders)
    (fun () -> f put)

(* The columns a spec routes on, and the spec restated over just those
   columns: [split] routes each stored record on a projected decode of
   them, in its frame. *)
let routing spec =
  match spec with
  | Shard.Hash cols ->
      let read = List.sort_uniq compare cols in
      let pos c =
        let rec find i = function
          | [] -> assert false
          | x :: rest -> if x = c then i else find (i + 1) rest
        in
        find 0 read
      in
      (read, Shard.Hash (List.map pos cols))
  | Shard.Range (col, bounds) -> ([ col ], Shard.Range (0, bounds))

let check_spec ~what ~parts spec =
  if parts < 1 then invalid_arg (what ^ ": parts must be positive");
  match spec with
  | Shard.Hash [] -> invalid_arg (what ^ ": hash spec needs columns")
  | Shard.Hash cols ->
      if List.exists (fun c -> c < 0) cols then
        invalid_arg (what ^ ": negative hash column")
  | Shard.Range (col, bounds) ->
      if col < 0 then invalid_arg (what ^ ": negative range column");
      if Array.length bounds <> parts - 1 then
        invalid_arg
          (Printf.sprintf "%s: range spec has %d bounds for %d parts" what
             (Array.length bounds) parts)

(* Split a registered table into [parts] partition files, register each
   under its partition name, and record the placement in the catalog.
   Returns per-partition row counts.  [sites] defaults to the identity
   placement (partition [k] at site [k]). *)
let split env ~table ~spec ~parts ?sites () =
  check_spec ~what:"Partition.split" ~parts spec;
  let sites = match sites with Some s -> s | None -> default_sites parts in
  let file, schema = Env.table env table in
  let targets =
    Array.init parts (fun part ->
        Env.create_table env
          ~name:(Shard.partition_name ~table ~part)
          ~schema)
  in
  let counts = Array.make parts 0 in
  let read, local = routing spec in
  let key = Serial.projection read in
  let router = route local ~parts in
  (* Each record goes from the source's pinned frame straight onto its
     partition's page: decoded only for the columns it routes on, and
     never copied out. *)
  let appenders = Array.map Heap_file.appender targets in
  let cursor = Heap_file.scan file in
  Fun.protect
    ~finally:(fun () ->
      Heap_file.close_cursor cursor;
      Array.iter Heap_file.close_appender appenders)
    (fun () ->
      while Heap_file.advance cursor do
        let data = Heap_file.data cursor
        and off = Heap_file.off cursor
        and len = Heap_file.len cursor in
        let tuple = Serial.decode_projected key data ~off ~len in
        let part = router tuple in
        Heap_file.append appenders.(part) data ~off ~len;
        counts.(part) <- counts.(part) + 1
      done);
  Shard.add (Env.catalog env) { Shard.table; parts; spec; sites };
  counts

(* The worker-site mirror of {!split}: materialize only the partitions
   that [site] owns, from a deterministic generator, without ever holding
   the full table.  Every site running [load_site] over the same
   [gen]/[count]/[spec] reconstructs exactly the placement the parent's
   catalog describes, so a worker resolves [Scan_table_slice] locally. *)
let load_site env ~table ~schema ~spec ~parts ?sites ~site ~count ~gen () =
  check_spec ~what:"Partition.load_site" ~parts spec;
  let sites = match sites with Some s -> s | None -> default_sites parts in
  if Array.length sites <> parts then
    invalid_arg "Partition.load_site: sites length must equal parts";
  let owned =
    List.filter (fun part -> sites.(part) = site) (List.init parts Fun.id)
  in
  (* [slot.(part)]: the owned partition's index among [files], or -1 *)
  let slot = Array.make parts (-1) in
  List.iteri (fun k part -> slot.(part) <- k) owned;
  let files =
    Array.of_list
      (List.map
         (fun part ->
           Env.create_table env ~name:(Shard.partition_name ~table ~part)
             ~schema)
         owned)
  in
  let counts = Array.make parts 0 in
  let router = route spec ~parts in
  with_appenders files (fun put ->
      for i = 0 to count - 1 do
        let tuple = gen i in
        let part = router tuple in
        if slot.(part) >= 0 then begin
          put slot.(part) tuple;
          counts.(part) <- counts.(part) + 1
        end
      done);
  Shard.add (Env.catalog env) { Shard.table; parts; spec; sites };
  counts
