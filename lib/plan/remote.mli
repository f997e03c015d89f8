(** Worker-side sharding for [Plan.Remote] subtrees.

    A remote worker compiles its subtree in a solo group, so the
    group-rank-governed leaves must be rewritten to the worker's shard
    explicitly; {!slice} performs exactly the rewrite that makes worker
    [shard] of [shards] produce what local producer rank [shard] of a
    [shards]-wide exchange group produces — the invariant behind the
    remote-vs-local differential test. *)

val slice : shard:int -> shards:int -> Plan.t -> Plan.t
(** Rewrite [Generate_slice] leaves to this shard's slice (a plain
    [Generate] over indices [shard, shard+shards, ...]) and
    [Scan_table_slice] leaves to a scan of partition file
    ["table#shard"] ({!Volcano_storage.Shard.partition_name} — the
    worker's site must hold that partition, or compilation fails its
    catalog lookup and the failure crosses as an [Err] frame); leave
    duplicated leaves and nested exchange boundaries untouched; recurse
    through everything else (including [Interchange], which compiles in
    the same group).
    @raise Invalid_argument on a shard outside [0, shards). *)

val shard_pull :
  Env.t ->
  shard:int ->
  shards:int ->
  Plan.t ->
  int list option ->
  unit ->
  Volcano_tuple.Tuple.t option
(** This shard's stream of the subtree, unopened — the resolve hook for
    [Volcano_net.Worker.run].  [shard_pull env ~shard ~shards plan]
    slices [plan] to the shard and returns a function of the edge's read
    set; applying it to [Some cols] compiles [Project_cols cols] over the
    slice ([None]: every column), opens it, and returns the record pull.
    A [Project_cols] at the top of [plan] is left out: it is the edge's
    read set, which the worker takes from the parent's [Narrow] frame
    (see [Plan.Remote]).  Over a table leaf the projection compiles into
    the scan's decode, so the site decodes only the columns it ships.
    Opening raises what compilation raises (a partition the site does not
    hold, a read set the analyzer rejects); the pull closes the iterator
    at end of stream, and best-effort if a pull raises (the exception
    propagates, for the worker to report as an [Err] frame).
    @raise Invalid_argument on a shard outside [0, shards). *)
