(** EXPLAIN ANALYZE for plans: compile against a fresh observability sink,
    run to exhaustion, and report per-node statistics alongside
    buffer-pool, workspace-device, and domain-spawn deltas.

    The deltas subtract the environment's counters before and after the
    run, so a shared environment should be quiescent while profiling;
    device counts cover the workspace device only (registered real-device
    tables are not included). *)

type report = {
  sink : Volcano_obs.Obs.t;
  obs : Compile.obs;
  plan : Plan.t;
  rows : int;  (** rows delivered to the query root *)
  elapsed_s : float;  (** wall time of the open-drain-close *)
  buffer : Volcano_storage.Bufpool.stats;  (** delta over the run *)
  device_reads : int;  (** workspace device, delta *)
  device_writes : int;
  tasks : int;  (** exchange tasks spawned during the run *)
  sched : Volcano_sched.Sched.stats;
      (** scheduler activity: counters are deltas over the run;
          [pool_workers] and [peak_queue_depth] are absolute *)
}

val execute : ?check:bool -> Env.t -> Plan.t -> report
(** Compile with {!Compile.observe} instrumentation and drain the query.
    [check] as in {!Compile.compile}; {!Compile.Rejected} propagates.
    Prefer {!Session.profile}, which calls this on the session's
    environment. *)

val render : report -> string
(** The annotated plan tree: a header (rows, time, buffer/device deltas)
    and one line per node with rows, next calls, and busy time; exchange
    nodes get extra lines for packet, flow-control, and group timings. *)

val to_json : report -> Volcano_obs.Jsonx.t
(** The run summary plus the sink's full {!Volcano_obs.Obs.report_json}. *)

val write_json : report -> path:string -> unit

val write_trace : report -> path:string -> unit
(** Chrome [trace_event] export of the run's operator spans. *)
