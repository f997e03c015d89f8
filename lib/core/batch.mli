(** Fused batch execution: the vectorized in-process counterpart of
    {!Iterator}.

    Inside a process group the per-record iterator protocol — one closure
    call per [next], one boxed option per row — dominates once exchange's
    hot path is cheap.  A fused chain amortizes it: a {!cursor} steps its
    source a run of records at a time, pushing each record through one
    composed emit function.  Every consumer steps the cursor directly —
    the exchange producer routes straight into port packets, the hash
    aggregate feeds its build, the hash join probes — and any other
    parent reads it through the record bridge {!to_iterator}.  Exchange
    remains the only place records cross a domain boundary, inside the
    port's pooled packets. *)

val default_size : int
(** 64 — the default [batch_size] knob setting. *)

val validate : batch_size:int -> (string * string) list
(** The single validation path for the [batch_size] knob, shared by
    {!Volcano_plan.Env} and planlint's batch pass (like
    {!Exchange.validate}).  0 means the batch path is disabled and is
    valid; otherwise the size must fit a packet shell, 1..255.  Returns
    [(code, message)] diagnoses — code ["batch-size"] — or [[]]. *)

(** {2 Cursors}

    A fused chain is one tight loop: a {!cursor} steps the source,
    pushing each record through a composed {!Volcano_tuple.Support.Stage}
    emit function.  No per-record option, no per-operator [next].  The
    protocol is {!Iterator}'s: [reset] before stepping, [stop] once
    after, and a [reset] after [stop] replays from scratch. *)

type cursor = {
  reset : unit -> unit;  (** (re)position at the first record *)
  step : emit:(Volcano_tuple.Tuple.t -> unit) -> max:int -> int;
      (** Drive up to [max] source records through [emit]; returns the
          number of source records consumed — 0 means exhausted.  [emit]
          sees at most [max] records per step (a stage chain passes at
          most one output record per source record; a join driver counts
          its emitted records instead). *)
  stop : unit -> unit;  (** release source resources *)
}

val staged : stage:Volcano_tuple.Support.Stage.t -> cursor -> cursor
(** [cursor] with [stage] applied to every emitted record: [step ~emit]
    steps [cursor] with [stage emit], composed once per physically
    distinct [emit] and reused, so a driver that passes the same emit on
    every step allocates nothing per step.  [stage] must emit at most
    one record per input record. *)

val generator_cursor : count:int -> f:(int -> Volcano_tuple.Tuple.t) -> cursor
val array_cursor : Volcano_tuple.Tuple.t array -> cursor

val iterator_cursor : Iterator.t -> cursor
(** Wrap any record iterator as a batch source ([reset] opens it, [stop]
    closes it). *)

(** {2 The record-at-a-time bridge}

    Operators not vectorized (sort, merge, nested loops, ...) consume a
    fused subtree through {!to_iterator}, and a record subtree feeds a
    cursor consumer through {!iterator_cursor}.  Both preserve record
    order exactly, so the fused and record paths are bit-identical. *)

val to_iterator : batch_size:int -> cursor -> Iterator.t
(** The record view of a cursor: [open_] resets it, [next] serves rows
    out of a fresh shell filled by one step of up to [batch_size]
    records and steps again on exhaustion, [close] stops it.  End of
    stream is latched: once a step returns 0 the cursor is not stepped
    again until the next [open_].
    @raise Invalid_argument unless [1 <= batch_size <= 255]. *)
