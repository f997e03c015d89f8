(** The session facade — the one entry point a client needs.

    A session owns an execution environment ({!Env}), a scheduler handle
    ({!Volcano_sched.Sched}), and a multi-query runtime
    ({!Volcano_sched.Runtime}) whose admission gate bounds the number of
    plans executing concurrently.  Queries go through the runtime whether
    submitted asynchronously ({!submit} / {!await}) or run synchronously
    ({!exec}), so a burst of queries from many domains degrades to an
    orderly queue instead of oversubscribing the worker pool.

    Every execution entry point takes an {!input}: either a hand-built
    [`Plan] or a [`Sql] string, which the installed front end (see
    {!set_frontend}; [Volcano_sql.install ()] is the stock one) parses,
    binds against the session's catalog, and optimizes into a plan that
    passes the analyzer with no diagnostic other than the VL501
    oversubscription advisory.  For the common case the
    SQL path is one line:

    {[
      Session.with_session (fun s ->
          let rows = Session.query s "SELECT COUNT(*) FROM wisc" in
          ...)
    ]}

    Cancellation and deadlines plug into the exchange poison chain: a
    cancelled query's root scope is poisoned, which shuts every port in
    the running plan, and its root iterator stops pulling — the awaiter
    gets [Error (Query_failed ...)] carrying the cancellation reason
    ({!Volcano_sched.Runtime.Cancelled} or
    {!Volcano_sched.Runtime.Deadline_exceeded}). *)

type t

val create :
  ?frames:int ->
  ?page_size:int ->
  ?workspace_capacity:int ->
  ?batch_size:int ->
  ?sched:Volcano_sched.Sched.t ->
  ?workers:int ->
  ?max_concurrent:int ->
  unit ->
  t
(** [frames]/[page_size]/[workspace_capacity]/[batch_size] size the
    environment as in {!Env.create} ([batch_size] is the vectorized
    execution knob: 0 disables batching, default
    {!Volcano.Batch.default_size}).  Scheduling: [~sched] adopts an
    existing scheduler, [~workers:n] creates a private [n]-worker pool
    owned (and shut down) by this session; default is the shared
    process-wide {!Volcano_sched.Sched.default}.  [max_concurrent] bounds
    plans in flight as in {!Volcano_sched.Runtime.create}.
    @raise Invalid_argument when both [~sched] and [~workers] are given,
    or when [workers < 1]. *)

val with_session :
  ?frames:int ->
  ?page_size:int ->
  ?workspace_capacity:int ->
  ?batch_size:int ->
  ?sched:Volcano_sched.Sched.t ->
  ?workers:int ->
  ?max_concurrent:int ->
  (t -> 'a) ->
  'a
(** [create], apply, then {!close} — also on exceptions. *)

val env : t -> Env.t
(** The session's environment: catalog registration, faults, tuning knobs
    all live here. *)

val sched : t -> Volcano_sched.Sched.t
val runtime : t -> Volcano_sched.Runtime.t

val set_faults : t -> Volcano_fault.Injector.t -> unit
(** Shorthand for {!Env.set_faults} on the session's environment. *)

val clear_faults : t -> unit

(** {2 Queries}

    Execution entry points accept either form. *)

type input = [ `Sql of string | `Plan of Plan.t ]

exception No_frontend
(** A [`Sql] input was given but no front end is installed — call
    [Volcano_sql.install ()] (linking the [volcano_sql] library) first. *)

type compiled_query = {
  cq_plan : Plan.t;  (** optimizer output; zero analyzer diagnostics *)
  cq_explain : string;
      (** the chosen plan's operator tree plus the optimizer's
          candidate-by-candidate notes *)
}

val set_frontend :
  (?workers:int -> Env.t -> string -> compiled_query) -> unit
(** Install the SQL front end (process-wide).  The plan layer cannot
    depend on the SQL layer, so the front end registers itself here:
    [Volcano_sql.install ()] is the stock implementation.  Front-end
    failures (parse, bind, optimize) should raise the front end's own
    exception type. *)

val compile_sql : ?workers:int -> t -> string -> compiled_query
(** Run the installed front end against this session's environment
    without executing.  @raise No_frontend if none is installed. *)

val exec :
  ?check:bool ->
  ?deadline_s:float ->
  t ->
  input ->
  Volcano_tuple.Tuple.t list
(** Compile and drain the query through the runtime (waiting for an
    admission slot if the session is at [max_concurrent]); returns the
    result rows.  [check] as in {!Compile.compile}; a [deadline_s] that
    expires poisons the query and raises
    {!Volcano.Exchange.Query_failed}. *)

val exec_count : ?check:bool -> ?deadline_s:float -> t -> input -> int
(** {!exec}, but count rows instead of materializing them. *)

val query : t -> string -> Volcano_tuple.Tuple.t list
(** [query s sql] is [exec s (`Sql sql)] — SQL in, rows out. *)

val explain : ?workers:int -> t -> string -> string
(** The front end's rendering of the plan it would run for this SQL:
    operator tree plus optimizer notes.  Nothing is executed. *)

type 'a job = 'a Volcano_sched.Runtime.job

val submit :
  ?check:bool ->
  ?deadline_s:float ->
  ?label:string ->
  t ->
  input ->
  Volcano_tuple.Tuple.t list job
(** Asynchronous {!exec}: enqueue the query and return at once.  A [`Sql]
    input is compiled {e before} enqueueing (front-end errors raise
    here); the plan itself is compiled inside the job (after admission),
    so {!Compile.Rejected} surfaces in the job result, not here. *)

val submit_count :
  ?check:bool -> ?deadline_s:float -> ?label:string -> t -> input -> int job

val await : 'a job -> ('a, exn) result
val cancel : 'a job -> unit

val status : 'a job -> Volcano_sched.Runtime.status

(** {2 Inspection} *)

val profile : ?check:bool -> t -> input -> Profile.report
(** EXPLAIN ANALYZE via {!Profile.execute}, including the session
    scheduler's task counters.  Runs outside the admission gate. *)

val analyze :
  ?workers:int ->
  ?flow_budget:int ->
  ?batch_size:int ->
  t ->
  input ->
  Diag.t list
(** Static analysis via {!Compile.analyze}.  The scheduler-placement
    advisory sizes itself from this session's pool, and the batch pass
    from its environment's knob, unless [workers] / [batch_size]
    override them.  (A [`Sql] input analyzes the optimizer's chosen
    plan, which carries no diagnostic but VL501 by construction — useful
    as an end-to-end check.) *)

val close : t -> unit
(** Drain the runtime (running and queued jobs finish; new submits are
    rejected) and, if this session created its own worker pool, shut it
    down. *)
