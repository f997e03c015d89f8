module Obs = Volcano_obs.Obs
module Jsonx = Volcano_obs.Jsonx
module Bufpool = Volcano_storage.Bufpool
module Device = Volcano_storage.Device
module Iterator = Volcano.Iterator
module Exchange = Volcano.Exchange
module Sched = Volcano_sched.Sched

type report = {
  sink : Obs.t;
  obs : Compile.obs;
  plan : Plan.t;
  rows : int;
  elapsed_s : float;
  buffer : Bufpool.stats;  (** delta over the run *)
  device_reads : int;  (** workspace device, delta *)
  device_writes : int;
  tasks : int;  (** exchange tasks spawned during the run *)
  sched : Sched.stats;  (** counters are deltas over the run *)
}

let delta_stats (s0 : Sched.stats) (s1 : Sched.stats) =
  {
    Sched.pool_workers = s1.pool_workers;
    submitted = s1.submitted - s0.submitted;
    completed = s1.completed - s0.completed;
    stolen = s1.stolen - s0.stolen;
    suspensions = s1.suspensions - s0.suspensions;
    resumptions = s1.resumptions - s0.resumptions;
    peak_queue_depth = s1.peak_queue_depth;
  }

let execute ?check env plan =
  let sink = Obs.create () in
  (* Report the plan that runs: observe it narrowed, so a rewritten
     remote edge and the operators above it attribute their rows.  The
     check still reads the plan as written. *)
  let ran = Plan.narrow env plan in
  if Option.value check ~default:true then Compile.check env plan;
  let obs = Compile.observe sink ran in
  let iterator = Compile.compile ~check:false ~obs env ran in
  let pool = Env.buffer env in
  let workspace = Env.workspace env in
  let sched = Env.sched env in
  let b0 = Bufpool.stats pool in
  let r0 = Device.reads workspace and w0 = Device.writes workspace in
  let d0 = Exchange.tasks_spawned () in
  let s0 = Sched.stats sched in
  (* Attach before the run so task latencies stream into the sink's
     histogram; the [~since] delta is zero at this point. *)
  Sched.register_obs ~since:s0 sched sink;
  let t0 = Obs.now () in
  let rows = Iterator.consume iterator in
  let elapsed_s = Obs.now () -. t0 in
  (* Push the run's counter deltas (the attach call added zero), then
     detach the latency histogram from this throwaway sink. *)
  Sched.register_obs ~since:s0 sched sink;
  Sched.register_obs sched Obs.null;
  let b1 = Bufpool.stats pool in
  {
    sink;
    obs;
    plan = ran;
    rows;
    elapsed_s;
    buffer =
      {
        Bufpool.hits = b1.Bufpool.hits - b0.Bufpool.hits;
        misses = b1.Bufpool.misses - b0.Bufpool.misses;
        evictions = b1.Bufpool.evictions - b0.Bufpool.evictions;
        writebacks = b1.Bufpool.writebacks - b0.Bufpool.writebacks;
        restarts = b1.Bufpool.restarts - b0.Bufpool.restarts;
      };
    device_reads = Device.reads workspace - r0;
    device_writes = Device.writes workspace - w0;
    tasks = Exchange.tasks_spawned () - d0;
    sched = delta_stats s0 (Sched.stats sched);
  }

let fmt_s s =
  if s < 0.0009995 then Printf.sprintf "%.0fus" (s *. 1e6)
  else if s < 0.9995 then Printf.sprintf "%.1fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

let render r =
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  add "%d rows in %s  (%d exchange tasks)" r.rows (fmt_s r.elapsed_s)
    r.tasks;
  add "sched: %d workers, %d tasks (%d stolen), %d suspensions"
    r.sched.Sched.pool_workers r.sched.Sched.submitted r.sched.Sched.stolen
    r.sched.Sched.suspensions;
  add "buffer: %d hits, %d misses, %d evictions, %d writebacks, %d restarts"
    r.buffer.Bufpool.hits r.buffer.Bufpool.misses r.buffer.Bufpool.evictions
    r.buffer.Bufpool.writebacks r.buffer.Bufpool.restarts;
  add "workspace: %d reads, %d writes" r.device_reads r.device_writes;
  add "";
  (* Pre-order with depth; shared subtrees print at every occurrence, as
     in [Plan.pp], but resolve to the same obs node. *)
  let rec flat depth plan =
    (depth, plan) :: List.concat_map (flat (depth + 1)) (Plan.children plan)
  in
  let entries = flat 0 r.plan in
  let width =
    List.fold_left
      (fun w (d, p) -> max w ((2 * d) + String.length (Plan.label p)))
      0 entries
  in
  List.iter
    (fun (d, p) ->
      let line = String.make (2 * d) ' ' ^ Plan.label p in
      match r.obs.Compile.node_of p with
      | None -> add "%s" line
      | Some n ->
          add "%s%s  rows=%-8d next=%-8d busy=%s" line
            (String.make (width - String.length line) ' ')
            (Obs.Node.rows n) (Obs.Node.next_calls n)
            (fmt_s (Obs.Node.busy_s n));
          (match Obs.exchange_sample r.sink ~node:n with
          | None -> ()
          | Some s ->
              let pad = String.make ((2 * d) + 4) ' ' in
              add "%spackets: %d sent, %d received, %d records, peak queue %d"
                pad s.Obs.packets_sent s.Obs.packets_received s.Obs.records
                s.Obs.max_queue_depth;
              add "%sflow: %d stalls, %s blocked; per-producer [%s]" pad
                s.Obs.flow_waits (fmt_s s.Obs.flow_wait_s)
                (String.concat ";"
                   (Array.to_list (Array.map string_of_int s.Obs.per_producer)));
              add "%spool: %d allocated, %d reused, %d recycled" pad
                s.Obs.pool_allocated s.Obs.pool_reused s.Obs.pool_recycled;
              if s.Obs.tasks > 0 then
                add "%sgroup: %d tasks, spawn %s, join %s" pad s.Obs.tasks
                  (fmt_s s.Obs.spawn_s) (fmt_s s.Obs.join_s)))
    entries;
  String.concat "\n" (List.rev !lines) ^ "\n"

let to_json r =
  Jsonx.Obj
    [
      ("rows", Jsonx.Int r.rows);
      ("elapsed_s", Jsonx.Float r.elapsed_s);
      ("tasks_spawned", Jsonx.Int r.tasks);
      ( "buffer",
        Jsonx.Obj
          [
            ("hits", Jsonx.Int r.buffer.Bufpool.hits);
            ("misses", Jsonx.Int r.buffer.Bufpool.misses);
            ("evictions", Jsonx.Int r.buffer.Bufpool.evictions);
            ("writebacks", Jsonx.Int r.buffer.Bufpool.writebacks);
            ("restarts", Jsonx.Int r.buffer.Bufpool.restarts);
          ] );
      ( "workspace",
        Jsonx.Obj
          [
            ("reads", Jsonx.Int r.device_reads);
            ("writes", Jsonx.Int r.device_writes);
          ] );
      ( "sched",
        Jsonx.Obj
          [
            ("workers", Jsonx.Int r.sched.Sched.pool_workers);
            ("tasks", Jsonx.Int r.sched.Sched.submitted);
            ("stolen", Jsonx.Int r.sched.Sched.stolen);
            ("suspensions", Jsonx.Int r.sched.Sched.suspensions);
            ("peak_queue_depth", Jsonx.Int r.sched.Sched.peak_queue_depth);
          ] );
      ("obs", Obs.report_json r.sink);
    ]

let write_json r ~path = Jsonx.write_file path (to_json r)
let write_trace r ~path = Obs.write_trace r.sink ~path
