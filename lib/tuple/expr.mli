(** A small expression and predicate language over tuples.

    The paper's support functions come in two flavours (section 3): compiled
    (a machine-code function plus a constant argument) and interpreted (an
    interpreter plus a code argument).  We mirror both: {!Interp} walks the
    AST per tuple; {!Compiled} translates the AST into nested closures once,
    ahead of execution.  The two must agree — a property the test suite
    checks exhaustively. *)

(** Scalar expressions. *)
type num =
  | Col of int  (** field by position *)
  | Const of Value.t
  | Add of num * num
  | Sub of num * num
  | Mul of num * num
  | Div of num * num
  | Neg of num
  | Mod of num * num

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

(** Predicates. *)
type pred =
  | True
  | False
  | Cmp of cmp_op * num * num
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Is_null of num
  | Str_prefix of string * num  (** string field starts with constant *)

val col : int -> num
val int : int -> num
val str : string -> num
val not_ : pred -> pred

(** Builder notation, meant to be opened locally:
    [Expr.Infix.(col 0 < int 10 && col 1 = str "x")]. *)
module Infix : sig
  val ( + ) : num -> num -> num
  val ( - ) : num -> num -> num
  val ( * ) : num -> num -> num
  val ( = ) : num -> num -> pred
  val ( <> ) : num -> num -> pred
  val ( < ) : num -> num -> pred
  val ( <= ) : num -> num -> pred
  val ( > ) : num -> num -> pred
  val ( >= ) : num -> num -> pred
  val ( && ) : pred -> pred -> pred
  val ( || ) : pred -> pred -> pred
end

module Interp : sig
  val num : num -> Tuple.t -> Value.t
  val pred : pred -> Tuple.t -> bool
end

module Compiled : sig
  val num : num -> Tuple.t -> Value.t
  (** [num e] performs the translation when partially applied; the returned
      closure does no AST traversal.  Integer-only expressions get an
      unboxed fast path spliced in front of the generic closure. *)

  val pred : pred -> Tuple.t -> bool

  exception Fallback
  (** Raised by a {!num_int} closure for a record that needs the generic
      semantics: a non-int field, or division by zero (Null in the
      generic evaluator). *)

  val num_int : num -> (Tuple.t -> int) option
  (** The unboxed kernel for an integer-only expression: computes in
      native ints with no allocation, raising {!Fallback} on the records
      it cannot handle.  [None] when the expression is statically not
      integer-only.  Callers must pair it with {!num} for the fallback. *)
end

val subst : (int -> num) -> num -> num
(** [subst bind e] replaces every [Col i] by [bind i] — composition of
    [e] through a projection.  Expression evaluation is total, so the
    substituted expression evaluates on the projection's input exactly
    as [e] evaluates on its output. *)

val subst_pred : (int -> num) -> pred -> pred
(** {!subst} through every scalar of a predicate. *)

val cols_of_num : num -> int list
(** Columns referenced by a scalar expression, ascending, deduplicated. *)

val cols_of_pred : pred -> int list
(** Columns referenced by a predicate, ascending, deduplicated. *)

val pp_num : Format.formatter -> num -> unit
val pp_pred : Format.formatter -> pred -> unit
