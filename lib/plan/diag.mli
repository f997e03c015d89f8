(** Structured diagnostics for the static plan analyzer.

    Every finding carries a severity, a stable machine-readable code (one
    per defect class, e.g. ["schema-col"] or ["deadlock-merge-flow"]), the
    path of the offending node in the plan tree (e.g.
    ["root/match/left/exchange"]), and a human-readable message.

    {!Planlint} produces these; [Compile.compile ~check:true] rejects plans
    whose diagnostics include an [Error]. *)

type severity = Error | Warning

type t = {
  severity : severity;
  code : string;  (** stable defect-class identifier *)
  path : string;  (** plan-tree location, [/]-separated from the root *)
  message : string;
}

val error : code:string -> path:string -> string -> t
val warning : code:string -> path:string -> string -> t

val registry : (string * string) list
(** Every registered defect-class slug paired with its stable numeric
    code ([("schema-col", "VL101")], ...).  The hundreds digit names the
    pass: 1 schema, 2 exchange configuration, 3 deadlock hazards,
    4 resource estimation, 5 scheduler placement and memory bounds,
    6 batch-size legality, 7 remote (network-distributed) exchange.
    Append-only: a number is never reassigned. *)

val vl_code : t -> string option
(** The [VLnnn] number for a diagnostic's code, if registered.  Passes
    only emit registered codes; [None] can occur for ad-hoc diagnostics
    built by external callers. *)

val is_error : t -> bool

val errors : t list -> t list
(** The [Error]-severity subset, order preserved. *)

val sort : t list -> t list
(** Errors first, then by path, then by code — a stable presentation
    order. *)

val to_string : t -> string
(** One line: ["error[VL101 schema-col] at root/project: ..."] — the
    stable number first, then the slug (slug alone for unregistered
    codes). *)

val pp : Format.formatter -> t -> unit

val pp_report : Format.formatter -> t list -> unit
(** All diagnostics, one per line, followed by an [N error(s), M
    warning(s)] summary line.  Prints [no diagnostics] for an empty
    list. *)
