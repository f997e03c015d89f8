(** Partitioned stored tables.

    {!split} shards a registered table into per-partition heap files named
    ["table#k"] — the same convention [Plan.Scan_table_slice] resolves at
    compile time, so shard [k] of a sliced scan reads exactly partition
    [k].  {!load_site} is the worker-side mirror: materialize only the
    partitions one site owns from a deterministic generator.  Both record
    the placement in the environment's {!Env.catalog}.

    Range bounds live in the catalog as opaque Serial-encoded bytes (the
    storage layer cannot depend on the tuple library); this module turns
    a catalog spec back into a row router, identically to
    [Volcano_net.Repart] on the worker side of a repartitioning edge. *)

val encode_bound : Volcano_tuple.Value.t -> string
(** A range bound as the catalog stores it: a Serial-encoded
    single-column tuple. *)

val decode_bound : string -> Volcano_tuple.Value.t

val hash_spec : int list -> Volcano_storage.Shard.spec
(** Partition by hash of the listed columns. *)

val range_spec :
  col:int -> bounds:Volcano_tuple.Value.t array -> Volcano_storage.Shard.spec
(** Partition by range on [col]; [bounds] are the [parts - 1] ascending
    inclusive upper bounds. *)

val route :
  Volcano_storage.Shard.spec -> parts:int -> Volcano_tuple.Tuple.t -> int
(** Instantiate a catalog spec as a row router over [parts] partitions —
    the same [Support.Partition] functions local exchange uses. *)

val with_appenders :
  Volcano_storage.Heap_file.t array ->
  ((int -> Volcano_tuple.Tuple.t -> unit) -> 'a) ->
  'a
(** [with_appenders files f] runs [f put], where [put k tuple] appends
    [tuple] to [files.(k)] through the bulk path: the record is encoded
    into one reused scratch buffer and copied onto the file's fixed last
    page ({!Volcano_storage.Heap_file.append}).  Every appender is closed
    when [f] returns or raises. *)

val split :
  Env.t ->
  table:string ->
  spec:Volcano_storage.Shard.spec ->
  parts:int ->
  ?sites:int array ->
  unit ->
  int array
(** Split the registered table [table] into [parts] partition files,
    register each, and add the catalog entry.  Each record is routed on
    a projected decode of its routing columns, in the source's frame, and
    copied from there onto its partition's page.  [sites] (default the
    identity placement: partition [k] at site [k]) says which worker site
    owns each partition.  Returns per-partition row counts.  The source
    table stays registered — a local plan can still scan it whole.
    @raise Invalid_argument on a malformed spec, duplicate partition
    names, or a catalog entry that already exists
    @raise Not_found when [table] is not registered *)

val load_site :
  Env.t ->
  table:string ->
  schema:Volcano_tuple.Schema.t ->
  spec:Volcano_storage.Shard.spec ->
  parts:int ->
  ?sites:int array ->
  site:int ->
  count:int ->
  gen:(int -> Volcano_tuple.Tuple.t) ->
  unit ->
  int array
(** Materialize, in a (typically worker-local) environment, only the
    partitions that [site] owns, routing rows [gen 0 .. gen (count - 1)]
    through the spec; partitions owned elsewhere are routed but dropped.
    Adds the same catalog entry every site derives, so placement agrees
    across processes by construction.  Returns per-partition row counts
    (zero for partitions not owned). *)
