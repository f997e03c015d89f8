(** Execution environment: the buffer pool, a workspace device for
    intermediate results (virtual — pages live in the buffer), and the table
    catalog.  One [Env.t] is shared by every process evaluating a query, as
    the Sequent's shared memory was. *)

type t

val create :
  ?frames:int ->
  ?page_size:int ->
  ?workspace_capacity:int ->
  ?batch_size:int ->
  ?sched:Volcano_sched.Sched.t ->
  unit ->
  t
(** Defaults: 256 frames of 4096 bytes, a 65536-page virtual workspace,
    and the process-wide {!Volcano_sched.Sched.default} scheduler (forced
    lazily, on first use — pass [~sched] to pin a specific scheduler).
    [batch_size] is the vectorized-execution knob (see {!batch_size});
    its default is {!Volcano.Batch.default_size}.
    @raise Invalid_argument when [batch_size] fails
    {!Volcano.Batch.validate}. *)

val buffer : t -> Volcano_storage.Bufpool.t
val workspace : t -> Volcano_storage.Device.t

(** The partition catalog: which tables are sharded, how their rows were
    partitioned, and which worker site owns each partition.  Populated by
    [Partition.split] / [Partition.load_site]; consulted by the
    remote-placement planlint pass (VL704). *)
val catalog : t -> Volcano_storage.Shard.t
val spill : t -> Volcano_ops.Sort.spill

val sched : t -> Volcano_sched.Sched.t
(** The scheduler onto which plans compiled from this environment submit
    their exchange producer tasks. *)

val sched_workers : t -> int
(** The worker-pool size this environment's queries will run on, for the
    analyzer's placement advisory.  Unlike {!sched} this never forces the
    lazy default scheduler: for an env that has not run anything yet it
    predicts the pool {!Volcano_sched.Sched.default} would build. *)

val register_table :
  t ->
  name:string ->
  file:Volcano_storage.Heap_file.t ->
  schema:Volcano_tuple.Schema.t ->
  unit
(** @raise Invalid_argument on duplicate names. *)

val create_table :
  t -> name:string -> schema:Volcano_tuple.Schema.t -> Volcano_storage.Heap_file.t
(** Create a fresh table on the workspace device and register it. *)

val table : t -> string -> Volcano_storage.Heap_file.t * Volcano_tuple.Schema.t
(** @raise Not_found for unknown tables. *)

val create_index : t -> table:string -> name:string -> key:int list -> int
(** Build a secondary B+-tree index over the named table's key columns on
    the workspace device and register it; returns the entry count.  Index
    keys order by the value ordering of the key columns. *)

val index :
  t -> string -> Volcano_btree.Btree.t * Volcano_storage.Heap_file.t * int list
(** The index, its base table file, and its key columns.
    @raise Not_found for unknown indexes. *)

val table_names : t -> string list

val sort_run_capacity : t -> int
val set_sort_run_capacity : t -> int -> unit
(** Tuples per in-memory sort run (spill threshold); default 65536. *)

val batch_size : t -> int
(** Records per fused batch on the vectorized execution path — fusible
    scan chains compile to one tight loop yielding packets of this many
    records.  0 disables batching (every node compiles
    record-at-a-time); otherwise 1..255, a packet shell's capacity
    range. *)

val set_batch_size : t -> int -> unit
(** Queries compiled afterwards use the new size.
    @raise Invalid_argument when the size fails
    {!Volcano.Batch.validate}. *)

val faults : t -> Volcano_fault.Injector.t
(** The installed fault injector ({!Volcano_fault.Injector.none} by
    default).  Plans compiled from this environment consult it at every
    site: the buffer pool, the workspace device, the exchange ports,
    producers, and operators. *)

val set_faults : t -> Volcano_fault.Injector.t -> unit
(** Install the injector on the environment, its buffer pool, and its
    workspace device.  Queries compiled afterwards run under it. *)

val clear_faults : t -> unit

type remote_launcher =
  faults:Volcano_fault.Injector.t ->
  repartition:(Volcano.Exchange.partition_spec * int) option ->
  workers:int ->
  task:string ->
  packet_size:int ->
  Volcano.Port.Transport.source array
(** Launch a remote producer group for a [Plan.Remote] node: spawn
    [workers] processes that each resolve [task] to their shard and
    stream packets back, returned as one transport source per worker.
    [repartition] is [Some (spec, consumers)] when the enclosing exchange
    partitions (rather than merges) across [consumers] downstream ranks:
    the launcher must ship the partition function to the workers so rows
    come back routed.  [Volcano_net.Launcher.launch] is the
    implementation; this library only knows the shape, so it stays
    independent of the networking subsystem. *)

val set_remote_launcher : t -> remote_launcher -> unit
(** Install the launcher (the CLI and the test harness do this at
    startup, closing over their worker-mode command line).  Compiling a
    [Plan.Remote] node without one raises [Invalid_argument] at open. *)

val remote_launcher : t -> remote_launcher option
