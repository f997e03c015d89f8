module Bufpool = Volcano_storage.Bufpool
module Device = Volcano_storage.Device
module Heap_file = Volcano_storage.Heap_file
module Schema = Volcano_tuple.Schema
module Injector = Volcano_fault.Injector
module Sched = Volcano_sched.Sched

type remote_launcher =
  faults:Injector.t ->
  repartition:(Volcano.Exchange.partition_spec * int) option ->
  workers:int ->
  task:string ->
  packet_size:int ->
  Volcano.Port.Transport.source array

type t = {
  buffer : Bufpool.t;
  workspace : Device.t;
  tables : (string, Heap_file.t * Schema.t) Hashtbl.t;
  catalog : Volcano_storage.Shard.t;
      (* which tables are partitioned, how, and which worker site owns
         each partition — consulted when lowering [Scan_table_slice] and
         by the analyzer's placement checks *)
  indexes : (string, Volcano_btree.Btree.t * Heap_file.t * int list) Hashtbl.t;
  lock : Mutex.t;
  mutable run_capacity : int;
  mutable batch_size : int; (* records per fused batch; 0 disables *)
  mutable faults : Injector.t;
  mutable remote : remote_launcher option;
      (* Injected by whoever wires Volcano_net in (the CLI, the test
         harness): keeps this library independent of the networking
         subsystem while letting compiled Remote nodes launch workers. *)
  sched : Sched.t Lazy.t;
      (* Lazy: an env created just for catalog work should not start the
         process-global worker pool. *)
}

let check_batch_size ~what n =
  match Volcano.Batch.validate ~batch_size:n with
  | [] -> n
  | (_, msg) :: _ -> invalid_arg (what ^ ": " ^ msg)

let create ?(frames = 256) ?(page_size = 4096) ?(workspace_capacity = 65536)
    ?(batch_size = Volcano.Batch.default_size) ?sched () =
  {
    buffer = Bufpool.create ~frames ~page_size ();
    workspace =
      Device.create_virtual ~name:"<workspace>" ~page_size
        ~capacity:workspace_capacity ();
    tables = Hashtbl.create 16;
    catalog = Volcano_storage.Shard.create ();
    indexes = Hashtbl.create 16;
    lock = Mutex.create ();
    run_capacity = 65536;
    batch_size = check_batch_size ~what:"Env.create" batch_size;
    faults = Injector.none;
    remote = None;
    sched =
      (match sched with
      | Some s -> Lazy.from_val s
      | None -> lazy (Sched.default ()));
  }

let buffer t = t.buffer
let workspace t = t.workspace
let catalog t = t.catalog
let sched t = Lazy.force t.sched

(* Worker count for the analyzer's placement advisory, WITHOUT forcing
   the lazy scheduler — analysis of a catalog-only env must not start
   the process-global pool.  When the scheduler has not materialized we
   predict the size of the pool [Sched.default] would build. *)
let sched_workers t =
  if Lazy.is_val t.sched then Sched.workers (Lazy.force t.sched)
  else Sched.default_workers ()

let spill t =
  { Volcano_ops.Sort.device = t.workspace; buffer = t.buffer }

let register_table t ~name ~file ~schema =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if Hashtbl.mem t.tables name then
        invalid_arg ("Env.register_table: duplicate table " ^ name);
      Hashtbl.add t.tables name (file, schema))

let create_table t ~name ~schema =
  let file = Heap_file.create ~buffer:t.buffer ~device:t.workspace ~name in
  register_table t ~name ~file ~schema;
  file

let table t name =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match Hashtbl.find_opt t.tables name with
      | Some entry -> entry
      | None -> raise Not_found)

let table_names t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> Hashtbl.fold (fun name _ acc -> name :: acc) t.tables [])

(* Index keys are serialized key projections compared by value order. *)
let index_cmp a b =
  Volcano_tuple.Tuple.compare
    (Volcano_tuple.Serial.decode_bytes (Bytes.of_string a))
    (Volcano_tuple.Serial.decode_bytes (Bytes.of_string b))

let create_index t ~table:table_name ~name ~key =
  let file, _schema = table t table_name in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if Hashtbl.mem t.indexes name then
        invalid_arg ("Env.create_index: duplicate index " ^ name));
  let tree =
    Volcano_btree.Btree.create ~buffer:t.buffer ~device:t.workspace ~name
      ~cmp:index_cmp
  in
  let key_of tuple =
    Volcano_tuple.Serial.encode_string (Volcano_tuple.Tuple.project tuple key)
  in
  let entries = Volcano_ops.Scan.build_index ~tree ~key_of file in
  Mutex.lock t.lock;
  Hashtbl.add t.indexes name (tree, file, key);
  Mutex.unlock t.lock;
  entries

let index t name =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match Hashtbl.find_opt t.indexes name with
      | Some entry -> entry
      | None -> raise Not_found)

let sort_run_capacity t = t.run_capacity
let set_sort_run_capacity t n = t.run_capacity <- n
let batch_size t = t.batch_size

let set_batch_size t n =
  t.batch_size <- check_batch_size ~what:"Env.set_batch_size" n
let faults t = t.faults

let set_faults t faults =
  t.faults <- faults;
  Bufpool.set_faults t.buffer faults;
  Device.set_faults t.workspace faults

let clear_faults t = set_faults t Injector.none
let set_remote_launcher t launcher = t.remote <- Some launcher
let remote_launcher t = t.remote
