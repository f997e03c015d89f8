(** The observability sink: metrics, per-operator spans, and exporters.

    The subsystem mirrors the paper's encapsulation thesis: operators are
    instrumented by wrapping their iterators ({!Volcano.Iterator}'s
    [instrumented]), never by editing their algorithms, and the parallel
    machinery (ports, process groups) reports through samples registered
    by exchange — no operator knows it is being observed.

    A sink is either {!null} (observability off) or active.  Plans
    compiled against the null sink are not wrapped at all, so the
    disabled overhead is one option check per plan node at compile time.
    All recorders are safe across domains: node statistics are atomic
    counters, span buffers are mutex-protected and touched only at
    operator open/close.

    Clocks: all timestamps come from one wall clock
    ([Unix.gettimeofday]), shared by every domain, so spans from
    different processes are directly comparable. *)

val now : unit -> float
(** The sink's wall clock, seconds. *)

type span = {
  span_label : string;
  node_id : int;
  tid : int;  (** domain id of the recording process *)
  start : float;
  stop : float;
  span_rows : int;
}

(** Per-operator statistics, aggregated across all ranks evaluating the
    same plan node.  Recorders are called by [Iterator.instrumented]. *)
module Node : sig
  type t

  val id : t -> int
  val label : t -> string
  val opens : t -> int
  val closes : t -> int
  val next_calls : t -> int
  val rows : t -> int

  val busy_s : t -> float
  (** Wall time spent inside this operator's open, next, and close calls,
      summed across ranks (inclusive of its inputs' time — the iterator
      protocol is a call tree). *)

  val open_s : t -> float

  (** {2 Recorders} *)

  val count_open : t -> unit
  val count_close : t -> unit
  val on_open : t -> elapsed:float -> unit
  val on_next : t -> produced:bool -> elapsed:float -> unit
  val on_close : t -> elapsed:float -> unit

  val on_batch : t -> rows:int -> elapsed:float -> unit
  (** The batch-path analogue of {!on_next}: one batch-level next call
      moved [rows] records through this node.  Counts one next call,
      adds [rows] to the row total, and books [elapsed] as busy time —
      so per-node row counts stay exact under batching. *)

  val on_span : t -> start:float -> stop:float -> rows:int -> unit
  (** One open-to-close lifetime of one rank's iterator instance; becomes
      a Chrome trace event. *)
end

(** A snapshot of one exchange's port and process-group counters. *)
type exchange_sample = {
  packets_sent : int;
  packets_received : int;
  records : int;
  max_queue_depth : int;
  flow_waits : int;  (** sends that found their lane ring full *)
  flow_wait_s : float;  (** total time spent blocked there *)
  per_producer : int array;  (** packets sent by each producer rank *)
  pool_allocated : int;  (** fresh packets created by the lane pools *)
  pool_reused : int;  (** allocations served from a pool's free ring *)
  pool_recycled : int;  (** packets accepted back for reuse *)
  spawn_s : float;  (** time to fork the producer group *)
  join_s : float;  (** time to join it at teardown *)
  tasks : int;  (** producer or feeder tasks forked for the group *)
}

(** {2 Metrics registry} *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  val percentile : t -> float -> float
  (** Backed by {!Volcano_util.Stats.percentile} ([p] in [0, 1]). *)

  val summary_json : t -> Jsonx.t
end

(** {2 The sink} *)

type t

val null : t
(** The disabled sink: nothing registers, nothing is reported.  Metric
    lookups return fresh unregistered instances, so recording through a
    null sink is harmless (one atomic op) — but the intended fast path
    is to skip instrumentation entirely when [enabled] is false. *)

val create : unit -> t
val enabled : t -> bool

val node : t -> label:string -> Node.t
(** Register a per-operator node (one per plan node; all ranks share
    it).  On the null sink: an unregistered dummy. *)

val nodes : t -> Node.t list
(** In registration order. *)

val counter : t -> string -> Counter.t
val gauge : t -> string -> Gauge.t
val histogram : t -> string -> Histogram.t
(** Find-or-create by name. *)

val register_exchange :
  t -> node:Node.t -> sample:(unit -> exchange_sample) -> unit
(** Called by exchange when it creates its port; [sample] is forced at
    report time, when the counters are final.  Re-registration (a
    reopened exchange) replaces the earlier sample. *)

val exchange_sample : t -> node:Node.t -> exchange_sample option
val spans : t -> span list

(** {2 Exporters} *)

val report_json : t -> Jsonx.t
(** Machine-readable report: nodes (with exchange samples inline),
    counters, gauges, histogram summaries. *)

val trace_json : t -> Jsonx.t
(** Chrome [trace_event] JSON (load via [chrome://tracing] or Perfetto):
    one complete event per operator span, [tid] = domain id,
    microsecond timestamps relative to sink creation. *)

val write_trace : t -> path:string -> unit
val exchange_sample_json : exchange_sample -> Jsonx.t
