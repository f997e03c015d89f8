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
  unit ->
  Volcano_tuple.Tuple.t option
(** Compile this shard's slice of the subtree and return a record pull —
    the resolve hook for [Volcano_net.Worker.run].  A [Project_cols] at
    the top of the subtree is left out: it is the edge's read set, which
    the worker applies to every record from the parent's [Narrow] frame
    (see [Plan.Remote]).  The iterator opens on
    the first call, closes at end of stream, and closes best-effort if a
    pull raises (the exception propagates, for the worker to report as an
    [Err] frame). *)
