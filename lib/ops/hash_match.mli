(** Hash-based implementation of the one-to-one match family.

    The right input is the build side, the left input probes.  When the
    build side exceeds [build_capacity] and a spill target is available,
    both inputs are hash-partitioned into files on the spill device (Grace
    style) and each partition pair is matched in memory — keys co-partition,
    so results concatenate.

    There is one build/probe/drain core with two feeds: {!cursor} steps a
    batch cursor (a fused probe chain) and {!iterator} a record iterator.
    Output order is the same for both: each probe tuple's matches in
    build insertion order, then the leftovers of the outer-join and
    set kinds in first-seen build-key order.

    The key table is built in two passes.  The build rows are first
    split into columns, numbered by arrival, and dropped: a column is an
    unboxed [int array] while every value in it is an [Int], and its
    first other value demotes it, once, to a boxed [Value.t array].
    Then every other array is allocated once from the exact row count,
    with no growth and no rehash:
    - [heads]: one slot per bucket (a power of two at least the row
      count, and at least 1024), holding the bucket's first key row;
    - per row, as [int]s: the key hash, a bucket-chain link and a
      same-key [dup] link, which chains a key's rows in arrival order;
    - per key, stored at the key's first row: the row count, the number
      of probes seen, and the last row of its [dup] chain.
    Lookups hash and compare keys in place on the columns, with
    [Key_hash]'s slot hash and equality, so the table holds no heap block
    per row or per key.  A match, a leftover and a Grace replay rebuild
    the build row from the columns, boxing an int column's value afresh
    (a match shares the probe's box at a key column).  The leftovers
    walk rows in ascending order and visit key rows: first-seen key
    order. *)

val cursor :
  ?build_capacity:int ->
  ?partitions:int ->
  ?spill:Sort.spill ->
  kind:Match_op.kind ->
  left_key:int list ->
  right_key:int list ->
  left_arity:int ->
  right_arity:int ->
  Volcano.Batch.cursor ->
  Volcano.Iterator.t ->
  Volcano.Batch.cursor
(** [cursor ... probe build]: the fused driver.  The probe side is a batch
    cursor — a fused probe chain carries its stages ({!Volcano.Batch.staged}).
    - [reset] drains [build] into the key table, then resets [probe].  A
      build side of more than [build_capacity] records (with [spill]
      given) switches to the Grace path, fed by the probe chain; the
      partitioning re-reads the collected rows in arrival order, then
      the row that overflowed, then the rest of [build].
    - [step ~emit ~max] steps the probe chain and emits at most [max]
      records, parking surplus matches (duplicate build keys) for the
      next step.  Once the probe side ends it emits the leftovers
      (unmatched build rows of right/full outer joins, the surplus build
      rows of union and anti-difference).  It returns the number emitted;
      0 means the match is exhausted.
    - [stop] closes whatever is open and releases the table. *)

val iterator :
  ?build_capacity:int ->
  ?partitions:int ->
  ?spill:Sort.spill ->
  kind:Match_op.kind ->
  left_key:int list ->
  right_key:int list ->
  left_arity:int ->
  right_arity:int ->
  Volcano.Iterator.t ->
  Volcano.Iterator.t ->
  Volcano.Iterator.t
(** [iterator ... probe build]: the record feed — {!cursor} over
    [Batch.iterator_cursor probe], one record per [next].  Defaults:
    unlimited build capacity (pure in-memory), 16 partitions. *)
