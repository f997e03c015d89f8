module Stats = Volcano_util.Stats
module Clock = Volcano_util.Clock

let now = Clock.now

(* Wall-clock seconds accumulate as integer nanoseconds so that concurrent
   recorders from many domains need only an atomic add, never a lock. *)
let ns_of_s seconds = int_of_float (seconds *. 1e9)
let s_of_ns ns = float_of_int ns *. 1e-9

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = {
  span_label : string;
  node_id : int;
  tid : int; (* domain id of the recording process *)
  start : float; (* wall clock, seconds *)
  stop : float;
  span_rows : int;
}

type span_buffer = { span_lock : Mutex.t; mutable span_items : span list }

(* ------------------------------------------------------------------ *)
(* Per-operator nodes                                                  *)

module Node = struct
  type t = {
    id : int;
    label : string;
    opens : int Atomic.t;
    closes : int Atomic.t;
    next_calls : int Atomic.t;
    rows : int Atomic.t;
    busy_ns : int Atomic.t; (* open + next + close, summed across ranks *)
    open_ns : int Atomic.t;
    spans : span_buffer option; (* None on the null sink *)
  }

  let make ~id ~label ~spans =
    {
      id;
      label;
      opens = Atomic.make 0;
      closes = Atomic.make 0;
      next_calls = Atomic.make 0;
      rows = Atomic.make 0;
      busy_ns = Atomic.make 0;
      open_ns = Atomic.make 0;
      spans;
    }

  let id t = t.id
  let label t = t.label
  let opens t = Atomic.get t.opens
  let closes t = Atomic.get t.closes
  let next_calls t = Atomic.get t.next_calls
  let rows t = Atomic.get t.rows
  let busy_s t = s_of_ns (Atomic.get t.busy_ns)
  let open_s t = s_of_ns (Atomic.get t.open_ns)

  let add_ns a seconds =
    let (_ : int) = Atomic.fetch_and_add a (ns_of_s seconds) in
    ()

  let count_open t = Atomic.incr t.opens
  let count_close t = Atomic.incr t.closes

  let on_open t ~elapsed =
    add_ns t.busy_ns elapsed;
    add_ns t.open_ns elapsed

  let on_next t ~produced ~elapsed =
    Atomic.incr t.next_calls;
    if produced then Atomic.incr t.rows;
    add_ns t.busy_ns elapsed

  let on_close t ~elapsed = add_ns t.busy_ns elapsed

  (* The batch path delivers rows in bulk: one next call moved [rows]
     records through this node. *)
  let on_batch t ~rows ~elapsed =
    Atomic.incr t.next_calls;
    if rows > 0 then begin
      let (_ : int) = Atomic.fetch_and_add t.rows rows in
      ()
    end;
    add_ns t.busy_ns elapsed

  let on_span t ~start ~stop ~rows =
    match t.spans with
    | None -> ()
    | Some buffer ->
        let span =
          {
            span_label = t.label;
            node_id = t.id;
            tid = (Domain.self () :> int);
            start;
            stop;
            span_rows = rows;
          }
        in
        Mutex.lock buffer.span_lock;
        buffer.span_items <- span :: buffer.span_items;
        Mutex.unlock buffer.span_lock
end

(* ------------------------------------------------------------------ *)
(* Exchange samples                                                    *)

type exchange_sample = {
  packets_sent : int;
  packets_received : int;
  records : int;
  max_queue_depth : int;
  flow_waits : int;
  flow_wait_s : float;
  per_producer : int array; (* packets sent by each producer rank *)
  pool_allocated : int; (* fresh packets created by the lane pools *)
  pool_reused : int; (* allocations served from a pool's free ring *)
  pool_recycled : int; (* packets accepted back for reuse *)
  spawn_s : float;
  join_s : float;
  tasks : int; (* producer or feeder tasks forked for the group *)
}

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

module Counter = struct
  type t = int Atomic.t

  let incr = Atomic.incr

  let add t n =
    let (_ : int) = Atomic.fetch_and_add t n in
    ()

  let value = Atomic.get
end

module Gauge = struct
  type t = float Atomic.t

  let set = Atomic.set
  let value = Atomic.get
end

module Histogram = struct
  type t = { lock : Mutex.t; stats : Stats.t }

  let make () = { lock = Mutex.create (); stats = Stats.create () }

  let observe t x =
    Mutex.lock t.lock;
    Stats.add t.stats x;
    Mutex.unlock t.lock

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> f t.stats)

  let count t = locked t Stats.count
  let mean t = locked t Stats.mean
  let percentile t p = locked t (fun s -> Stats.percentile s p)

  let summary_json t =
    locked t (fun s ->
        Jsonx.Obj
          [
            ("count", Jsonx.Int (Stats.count s));
            ("mean", Jsonx.Float (Stats.mean s));
            ("min", Jsonx.Float (Stats.min s));
            ("max", Jsonx.Float (Stats.max s));
            ("p50", Jsonx.Float (Stats.percentile s 0.5));
            ("p90", Jsonx.Float (Stats.percentile s 0.9));
            ("p99", Jsonx.Float (Stats.percentile s 0.99));
          ])
end

(* ------------------------------------------------------------------ *)
(* The sink                                                            *)

type active = {
  lock : Mutex.t;
  next_id : int Atomic.t;
  mutable nodes : Node.t list; (* reverse creation order *)
  mutable exchanges : (int * exchange_sample Lazy.t) list; (* keyed by node *)
  spans : span_buffer;
  counters : (string, Counter.t) Hashtbl.t;
  gauges : (string, Gauge.t) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  started : float;
}

type t = Null | Active of active

let null = Null

let create () =
  Active
    {
      lock = Mutex.create ();
      next_id = Atomic.make 0;
      nodes = [];
      exchanges = [];
      spans = { span_lock = Mutex.create (); span_items = [] };
      counters = Hashtbl.create 16;
      gauges = Hashtbl.create 16;
      histograms = Hashtbl.create 16;
      started = now ();
    }

let enabled = function Null -> false | Active _ -> true

let node t ~label =
  match t with
  | Null -> Node.make ~id:(-1) ~label ~spans:None
  | Active a ->
      let id = Atomic.fetch_and_add a.next_id 1 in
      let node = Node.make ~id ~label ~spans:(Some a.spans) in
      Mutex.lock a.lock;
      a.nodes <- node :: a.nodes;
      Mutex.unlock a.lock;
      node

let nodes = function
  | Null -> []
  | Active a ->
      Mutex.lock a.lock;
      let nodes = a.nodes in
      Mutex.unlock a.lock;
      List.rev nodes

(* [sample] is forced at report time (the port's counters are final by
   then); re-registering a node — an exchange reopened for a second run —
   replaces the previous sample. *)
let register_exchange t ~node ~sample =
  match t with
  | Null -> ()
  | Active a ->
      let id = Node.id node in
      Mutex.lock a.lock;
      a.exchanges <-
        (id, Lazy.from_fun sample)
        :: List.filter (fun (i, _) -> i <> id) a.exchanges;
      Mutex.unlock a.lock

let exchange_sample t ~node =
  match t with
  | Null -> None
  | Active a ->
      Mutex.lock a.lock;
      let found = List.assoc_opt (Node.id node) a.exchanges in
      Mutex.unlock a.lock;
      Option.map Lazy.force found

let spans = function
  | Null -> []
  | Active a ->
      Mutex.lock a.spans.span_lock;
      let items = a.spans.span_items in
      Mutex.unlock a.spans.span_lock;
      List.rev items

(* Registry lookups create on first use.  On the null sink they return a
   fresh unregistered instance: updates cost an atomic op and are never
   reported — callers need no disabled-path branching. *)

let with_registry table lock name make =
  Mutex.lock lock;
  let entry =
    match Hashtbl.find_opt table name with
    | Some entry -> entry
    | None ->
        let entry = make () in
        Hashtbl.add table name entry;
        entry
  in
  Mutex.unlock lock;
  entry

let counter t name =
  match t with
  | Null -> Atomic.make 0
  | Active a -> with_registry a.counters a.lock name (fun () -> Atomic.make 0)

let gauge t name =
  match t with
  | Null -> Atomic.make 0.0
  | Active a -> with_registry a.gauges a.lock name (fun () -> Atomic.make 0.0)

let histogram t name =
  match t with
  | Null -> Histogram.make ()
  | Active a -> with_registry a.histograms a.lock name Histogram.make

let registry_json table f =
  Hashtbl.fold (fun name entry acc -> (name, f entry) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let exchange_sample_json sample =
  Jsonx.Obj
    [
      ("packets_sent", Jsonx.Int sample.packets_sent);
      ("packets_received", Jsonx.Int sample.packets_received);
      ("records", Jsonx.Int sample.records);
      ("max_queue_depth", Jsonx.Int sample.max_queue_depth);
      ("flow_waits", Jsonx.Int sample.flow_waits);
      ("flow_wait_s", Jsonx.Float sample.flow_wait_s);
      ( "per_producer_packets",
        Jsonx.List
          (Array.to_list (Array.map (fun n -> Jsonx.Int n) sample.per_producer))
      );
      ("pool_allocated", Jsonx.Int sample.pool_allocated);
      ("pool_reused", Jsonx.Int sample.pool_reused);
      ("pool_recycled", Jsonx.Int sample.pool_recycled);
      ("spawn_s", Jsonx.Float sample.spawn_s);
      ("join_s", Jsonx.Float sample.join_s);
      ("tasks", Jsonx.Int sample.tasks);
    ]

let node_json t node =
  let base =
    [
      ("id", Jsonx.Int (Node.id node));
      ("label", Jsonx.String (Node.label node));
      ("opens", Jsonx.Int (Node.opens node));
      ("closes", Jsonx.Int (Node.closes node));
      ("next_calls", Jsonx.Int (Node.next_calls node));
      ("rows", Jsonx.Int (Node.rows node));
      ("busy_s", Jsonx.Float (Node.busy_s node));
      ("open_s", Jsonx.Float (Node.open_s node));
    ]
  in
  match exchange_sample t ~node with
  | None -> Jsonx.Obj base
  | Some sample -> Jsonx.Obj (base @ [ ("exchange", exchange_sample_json sample) ])

let report_json t =
  match t with
  | Null -> Jsonx.Obj []
  | Active a ->
      Jsonx.Obj
        [
          ( "nodes",
            Jsonx.List (List.map (node_json t) (nodes t)) );
          ( "counters",
            Jsonx.Obj
              (registry_json a.counters (fun c -> Jsonx.Int (Counter.value c)))
          );
          ( "gauges",
            Jsonx.Obj
              (registry_json a.gauges (fun g -> Jsonx.Float (Gauge.value g)))
          );
          ( "histograms",
            Jsonx.Obj (registry_json a.histograms Histogram.summary_json) );
          ("spans", Jsonx.Int (List.length (spans t)));
        ]

(* Chrome trace_event format: one complete ("X") event per span,
   timestamps in microseconds relative to the sink's creation.  All
   domains share one wall clock (gettimeofday), so cross-domain ordering
   in the trace is faithful to within clock resolution. *)
let trace_json t =
  let origin = match t with Null -> 0.0 | Active a -> a.started in
  let us x = (x -. origin) *. 1e6 in
  let events =
    List.map
      (fun span ->
        Jsonx.Obj
          [
            ("name", Jsonx.String span.span_label);
            ("cat", Jsonx.String "operator");
            ("ph", Jsonx.String "X");
            ("ts", Jsonx.Float (us span.start));
            ("dur", Jsonx.Float ((span.stop -. span.start) *. 1e6));
            ("pid", Jsonx.Int 0);
            ("tid", Jsonx.Int span.tid);
            ( "args",
              Jsonx.Obj
                [
                  ("rows", Jsonx.Int span.span_rows);
                  ("node", Jsonx.Int span.node_id);
                ] );
          ])
      (spans t)
  in
  Jsonx.Obj
    [ ("traceEvents", Jsonx.List events); ("displayTimeUnit", Jsonx.String "ms") ]

let write_trace t ~path = Jsonx.write_file path (trace_json t)
