(** The SQL front end, rolled up: parse, bind, optimize, install.

    The pipeline is {!Lexer}/{!Parser} (text to {!Ast.query}),
    {!Binder} (names and types against the catalog, aggregates
    decomposed, AVG lowered to SUM/COUNT), and {!Optimizer} (cost-based
    join order, algorithm choice, and per-edge exchange placement, with
    the analyzer as legality oracle).  This module composes them and
    funnels every stage's failure into one {!Error} so callers handle a
    single exception.

    {!install} registers the pipeline as the process-wide
    {!Volcano_plan.Session.set_frontend}, after which
    [Session.query s "SELECT ..."] works.  The call is explicit because
    OCaml links nothing from a library that is never referenced —
    a program that wants SQL must say so once. *)

exception Error of string
(** Any front-end failure — lexing, parsing, binding, or optimization —
    with a human-readable message. *)

val parse : string -> Ast.query
(** Text to AST.  @raise Error on lexical or syntax errors. *)

val print : Ast.query -> string
(** Canonical rendering; [print (parse (print q)) = print q]. *)

val bind : Volcano_plan.Env.t -> Ast.query -> Binder.query
(** Resolve and typecheck against the environment's catalog.
    @raise Error on unknown tables/columns, type clashes, or malformed
    aggregation. *)

val plan :
  ?workers:int -> Volcano_plan.Env.t -> string -> Optimizer.choice
(** The whole pipeline: parse, bind, optimize.  The resulting plan
    passes {!Volcano_plan.Compile.analyze} with no diagnostic other than
    the VL501 oversubscription advisory.
    @raise Error on any front-end failure. *)

val explain : ?workers:int -> Volcano_plan.Env.t -> string -> string
(** The chosen plan's operator tree plus the optimizer's notes. *)

val install : unit -> unit
(** Register this front end with {!Volcano_plan.Session.set_frontend}
    (idempotent), enabling [Session.query] / [Session.explain] and
    [`Sql] inputs everywhere. *)
