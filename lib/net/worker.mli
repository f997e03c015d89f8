(** The worker-process side of remote exchange.

    A worker is spawned by {!Launcher.launch}, connects back over the
    socket it was given, and then serves one assignment after another on
    that connection.  Each assignment begins with a [Hello] frame naming
    its task and shard (a repartitioning one is followed by the partition
    function): the worker resolves the task to a record stream, opens it
    with the edge's read set from the [Narrow] frame that follows, and
    streams [Data] frames (one packet of {!Volcano_tuple.Serial}-encoded
    records each) followed by [Eos] — or an [Err] frame carrying the
    failure's site and message, which the consumer re-raises as the
    selfsame [Query_failed].

    {b Lifecycle.}  After a delivered [Eos] the worker waits for the next
    [Hello].  It keeps one assignment: the [(task, shard, shards)] it last
    resolved and the opener [resolve] returned for it.  A Hello naming
    the same triple skips [resolve] and applies the kept opener to its
    own read set, so a site pays its load once; its packet size and edge
    (merge or repartitioning, and the partition function) come from its
    own frames.  Any other Hello drops the kept assignment before it
    resolves, so a site never holds two loads.  It serves Hellos until
    its connection closes: end of file, a [Cancel] frame (checked between
    packets, or where a Hello or read set is due), a reported [Err] or
    [EPIPE] closes the connection and returns. *)

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
    scan when the stream opens.

    Since a site keeps its last assignment, [resolve] must be a function
    of [(task, shard, shards)] alone — derive the rows from the task
    string (a seeded generator, say), never from state that can change
    between two Hellos — and its opener must reopen the same records on
    each application: each application is one query's stream, opened
    after the previous one ended.  An exception from [resolve], from
    opening the stream or from a pull is reported as an [Err] frame and
    ends the worker; this function never raises and returns once the
    socket is closed. *)
