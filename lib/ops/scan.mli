(** Scan operators: the bridge between the file system and the query
    algebra.  A scan deserializes stored records into tuples; everything
    above it is oblivious to storage ("anonymous inputs"). *)

val heap :
  ?slice:int * int ->
  ?cols:int list ->
  Volcano_storage.Heap_file.t ->
  Volcano.Iterator.t
(** File scan in page order, decoding each record straight out of its
    pinned page frame.  [~slice:(rank, ranks)] reads only the pages that
    rank owns ({!Volcano_storage.Heap_file.slice}); [~cols] yields
    [Tuple.project record cols] without allocating the dropped fields
    (the columns must be distinct). *)

val heap_cursor :
  ?slice:int * int ->
  ?cols:int list ->
  Volcano_storage.Heap_file.t ->
  Volcano.Batch.cursor
(** The batch source behind fused scan chains: a {!Volcano.Batch.cursor}
    over the same records as {!heap}, stepped by every fused-chain
    consumer. *)

val heap_filtered :
  ?slice:int * int ->
  ?cols:int list ->
  pred:Volcano_tuple.Support.predicate ->
  Volcano_storage.Heap_file.t ->
  Volcano.Iterator.t
(** Scan with the predicate applied inside the scan operator, as Volcano's
    file scan does with its predicate support function. *)

val btree :
  Volcano_btree.Btree.t ->
  lo:Volcano_btree.Btree.bound ->
  hi:Volcano_btree.Btree.bound ->
  Volcano.Iterator.t
(** Range scan over a B+-tree whose values are serialized tuples. *)

val materialize :
  Volcano.Iterator.t -> into:Volcano_storage.Heap_file.t -> int
(** Drain an iterator into a heap file; returns the record count.  Used to
    build stored datasets and spill intermediate results. *)

(** {2 Secondary indexes}

    A secondary index is a B+-tree whose values are encoded RIDs into a
    heap file ("functional join": index scan, then fetch). *)

val encode_rid : Volcano_storage.Rid.t -> string
val decode_rid : string -> Volcano_storage.Rid.t

val build_index :
  tree:Volcano_btree.Btree.t ->
  key_of:(Volcano_tuple.Tuple.t -> string) ->
  Volcano_storage.Heap_file.t ->
  int
(** Scan the file and index every record under [key_of tuple]; returns the
    number of entries inserted. *)

val index_fetch :
  tree:Volcano_btree.Btree.t ->
  file:Volcano_storage.Heap_file.t ->
  lo:Volcano_btree.Btree.bound ->
  hi:Volcano_btree.Btree.bound ->
  Volcano.Iterator.t
(** Range-scan the index and fetch the qualifying records from the heap
    file.  Records deleted from the file since indexing are skipped. *)
