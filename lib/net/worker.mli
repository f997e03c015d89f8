(** The worker-process side of remote exchange.

    A worker is spawned by {!Launcher.launch}, connects back over the
    Unix-domain socket it was given, receives a [Hello] frame naming its
    task and shard, resolves the task to a record stream, opens it with
    the edge's read set from the [Narrow] frame that follows, and streams
    [Data] frames (one packet of {!Volcano_tuple.Serial}-encoded records
    each) followed by [Eos] — or an [Err] frame carrying the failure's
    site and message, which the consumer re-raises as the selfsame
    [Query_failed].  A [Cancel] frame (checked between packets) or a torn
    connection ends the worker cleanly. *)

type pull = unit -> Volcano_tuple.Tuple.t option

val run :
  socket:string ->
  resolve:
    (task:string -> shard:int -> shards:int -> int list option -> pull) ->
  unit
(** Worker-process main.  [resolve] maps the opaque task string to this
    shard's stream, unopened: a function of the edge's read set, which
    arrives in the parent's [Narrow] frame after [resolve] returns (so a
    site's load in [resolve] overlaps the parent's set-up).  Applied to
    [Some cols], the stream must yield each record projected to [cols]
    ([List.nth cols k] as column [k]); to [None], whole records.
    Typically: rebuild the plan the task names and hand back
    [Remote.shard_pull env ~shard ~shards plan], which slices the plan's
    leaves to [shard] of [shards] and compiles the read set into the
    scan when the stream opens.  An exception from [resolve], from
    opening the stream or from a pull is reported as an [Err] frame;
    this function never raises and returns once the socket is
    closed. *)
