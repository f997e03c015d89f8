type num =
  | Col of int
  | Const of Value.t
  | Add of num * num
  | Sub of num * num
  | Mul of num * num
  | Div of num * num
  | Neg of num
  | Mod of num * num

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | True
  | False
  | Cmp of cmp_op * num * num
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Is_null of num
  | Str_prefix of string * num

let col i = Col i
let int x = Const (Value.Int x)
let str s = Const (Value.Str s)
let not_ p = Not p

module Infix = struct
  let ( + ) a b = Add (a, b)
  let ( - ) a b = Sub (a, b)
  let ( * ) a b = Mul (a, b)
  let ( = ) a b = Cmp (Eq, a, b)
  let ( <> ) a b = Cmp (Ne, a, b)
  let ( < ) a b = Cmp (Lt, a, b)
  let ( <= ) a b = Cmp (Le, a, b)
  let ( > ) a b = Cmp (Gt, a, b)
  let ( >= ) a b = Cmp (Ge, a, b)
  let ( && ) a b = And (a, b)
  let ( || ) a b = Or (a, b)
end

(* Arithmetic with numeric promotion: int op int stays int (division by zero
   yields Null rather than raising, so that malformed data cannot abort a
   query pipeline); anything involving a float is float; Null propagates. *)
let arith int_op float_op a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> int_op x y
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
      Value.Float (float_op (Value.float_exn a) (Value.float_exn b))
  | _ -> Value.Null

let add = arith (fun x y -> Value.Int (Stdlib.( + ) x y)) Stdlib.( +. )
let sub = arith (fun x y -> Value.Int (Stdlib.( - ) x y)) Stdlib.( -. )
let mul = arith (fun x y -> Value.Int (Stdlib.( * ) x y)) Stdlib.( *. )

let div =
  arith
    (fun x y -> if Stdlib.( = ) y 0 then Value.Null else Value.Int (Stdlib.( / ) x y))
    (fun x y -> Stdlib.( /. ) x y)

let rem =
  arith
    (fun x y -> if Stdlib.( = ) y 0 then Value.Null else Value.Int (Stdlib.(mod) x y))
    Float.rem

let neg = function
  | Value.Int x -> Value.Int (Stdlib.( - ) 0 x)
  | Value.Float x -> Value.Float (Stdlib.( -. ) 0.0 x)
  | _ -> Value.Null

let cmp_holds op a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> false
  | _ ->
      let c = Value.compare a b in
      (match op with
      | Eq -> Stdlib.( = ) c 0
      | Ne -> Stdlib.( <> ) c 0
      | Lt -> Stdlib.( < ) c 0
      | Le -> Stdlib.( <= ) c 0
      | Gt -> Stdlib.( > ) c 0
      | Ge -> Stdlib.( >= ) c 0)

module Interp = struct
  let rec num e tuple =
    match e with
    | Col i -> tuple.(i)
    | Const v -> v
    | Add (a, b) -> add (num a tuple) (num b tuple)
    | Sub (a, b) -> sub (num a tuple) (num b tuple)
    | Mul (a, b) -> mul (num a tuple) (num b tuple)
    | Div (a, b) -> div (num a tuple) (num b tuple)
    | Mod (a, b) -> rem (num a tuple) (num b tuple)
    | Neg a -> neg (num a tuple)

  let rec pred p tuple =
    match p with
    | True -> true
    | False -> false
    | Cmp (op, a, b) -> cmp_holds op (num a tuple) (num b tuple)
    | And (a, b) -> pred a tuple && pred b tuple
    | Or (a, b) -> pred a tuple || pred b tuple
    | Not a -> not (pred a tuple)
    | Is_null a -> (match num a tuple with Value.Null -> true | _ -> false)
    | Str_prefix (prefix, a) -> (
        match num a tuple with
        | Value.Str s ->
            String.length s >= String.length prefix
            && String.equal (String.sub s 0 (String.length prefix)) prefix
        | _ -> false)
end

module Compiled = struct
  (* Translate the AST into closures once; the result never revisits it. *)
  let rec num_gen e =
    match e with
    | Col i -> fun tuple -> tuple.(i)
    | Const v -> fun _ -> v
    | Add (a, b) ->
        let fa = num_gen a and fb = num_gen b in
        fun tuple -> add (fa tuple) (fb tuple)
    | Sub (a, b) ->
        let fa = num_gen a and fb = num_gen b in
        fun tuple -> sub (fa tuple) (fb tuple)
    | Mul (a, b) ->
        let fa = num_gen a and fb = num_gen b in
        fun tuple -> mul (fa tuple) (fb tuple)
    | Div (a, b) ->
        let fa = num_gen a and fb = num_gen b in
        fun tuple -> div (fa tuple) (fb tuple)
    | Mod (a, b) ->
        let fa = num_gen a and fb = num_gen b in
        fun tuple -> rem (fa tuple) (fb tuple)
    | Neg a ->
        let fa = num_gen a in
        fun tuple -> neg (fa tuple)

  let rec pred_gen p =
    match p with
    | True -> fun _ -> true
    | False -> fun _ -> false
    | Cmp (op, a, b) ->
        let fa = num_gen a and fb = num_gen b in
        fun tuple -> cmp_holds op (fa tuple) (fb tuple)
    | And (a, b) ->
        let fa = pred_gen a and fb = pred_gen b in
        fun tuple -> fa tuple && fb tuple
    | Or (a, b) ->
        let fa = pred_gen a and fb = pred_gen b in
        fun tuple -> fa tuple || fb tuple
    | Not a ->
        let fa = pred_gen a in
        fun tuple -> not (fa tuple)
    | Is_null a ->
        let fa = num_gen a in
        fun tuple -> (match fa tuple with Value.Null -> true | _ -> false)
    | Str_prefix (prefix, a) ->
        let fa = num_gen a in
        let plen = String.length prefix in
        fun tuple ->
          (match fa tuple with
          | Value.Str s ->
              String.length s >= plen && String.equal (String.sub s 0 plen) prefix
          | _ -> false)

  (* Unboxed integer fast path.  An integer-only expression compiles to a
     closure computing in native ints — no intermediate [Value] boxes, no
     generic compare.  The closure raises [Fallback] for the odd record
     needing the generic semantics (a non-int field, division by zero →
     Null, Null propagation); callers pair it with the generic closure.
     Compilation returns [None] when the expression is statically not
     integer-only (a float/string constant, a string predicate). *)
  exception Fallback

  (* The int in column [i], or the generic path. *)
  let ix tuple i =
    match tuple.(i) with Value.Int x -> x | _ -> raise Fallback

  (* The ubiquitous operand shapes — [col op col], [col op const] — are
     flattened into a single closure; constants fold at compile time
     (including a divisor's zero check).  A scan-heavy plan evaluates
     these once per record, so every saved closure hop shows up
     directly in throughput. *)
  let rec num_int e =
    let bin a b op =
      match (num_int a, num_int b) with
      | Some fa, Some fb -> Some (fun tuple -> op (fa tuple) (fb tuple))
      | _ -> None
    in
    match e with
    | Col i -> Some (fun tuple -> ix tuple i)
    | Const (Value.Int x) -> Some (fun _ -> x)
    | Const _ -> None
    | Add (Col i, Col j) -> Some (fun t -> Stdlib.( + ) (ix t i) (ix t j))
    | Add (Col i, Const (Value.Int k)) -> Some (fun t -> Stdlib.( + ) (ix t i) k)
    | Add (Const (Value.Int k), Col j) -> Some (fun t -> Stdlib.( + ) k (ix t j))
    | Add (a, Const (Value.Int k)) ->
        Option.map (fun fa t -> Stdlib.( + ) (fa t) k) (num_int a)
    | Add (Const (Value.Int k), b) ->
        Option.map (fun fb t -> Stdlib.( + ) k (fb t)) (num_int b)
    | Add (a, b) -> bin a b Stdlib.( + )
    | Sub (Col i, Col j) -> Some (fun t -> Stdlib.( - ) (ix t i) (ix t j))
    | Sub (Col i, Const (Value.Int k)) -> Some (fun t -> Stdlib.( - ) (ix t i) k)
    | Sub (Const (Value.Int k), Col j) -> Some (fun t -> Stdlib.( - ) k (ix t j))
    | Sub (a, Const (Value.Int k)) ->
        Option.map (fun fa t -> Stdlib.( - ) (fa t) k) (num_int a)
    | Sub (Const (Value.Int k), b) ->
        Option.map (fun fb t -> Stdlib.( - ) k (fb t)) (num_int b)
    | Sub (a, b) -> bin a b Stdlib.( - )
    | Mul (Col i, Col j) -> Some (fun t -> Stdlib.( * ) (ix t i) (ix t j))
    | Mul (Col i, Const (Value.Int k)) -> Some (fun t -> Stdlib.( * ) (ix t i) k)
    | Mul (Const (Value.Int k), Col j) -> Some (fun t -> Stdlib.( * ) k (ix t j))
    | Mul (a, Const (Value.Int k)) ->
        Option.map (fun fa t -> Stdlib.( * ) (fa t) k) (num_int a)
    | Mul (Const (Value.Int k), b) ->
        Option.map (fun fb t -> Stdlib.( * ) k (fb t)) (num_int b)
    | Mul (a, b) -> bin a b Stdlib.( * )
    | Div (a, Const (Value.Int k)) ->
        if Stdlib.( = ) k 0 then Some (fun _ -> raise Fallback)
        else (
          match a with
          | Col i -> Some (fun t -> ix t i / k)
          | _ -> Option.map (fun fa t -> fa t / k) (num_int a))
    | Div (a, b) ->
        bin a b (fun x y -> if Stdlib.( = ) y 0 then raise Fallback else x / y)
    | Mod (a, Const (Value.Int k)) ->
        if Stdlib.( = ) k 0 then Some (fun _ -> raise Fallback)
        else (
          match a with
          | Col i -> Some (fun t -> Stdlib.( mod ) (ix t i) k)
          | _ -> Option.map (fun fa t -> Stdlib.( mod ) (fa t) k) (num_int a))
    | Mod (a, b) ->
        bin a b (fun x y ->
            if Stdlib.( = ) y 0 then raise Fallback else Stdlib.( mod ) x y)
    | Neg a -> (
        match num_int a with
        | Some fa -> Some (fun tuple -> Stdlib.( - ) 0 (fa tuple))
        | None -> None)

  let rec pred_int p =
    let both a b op =
      match (pred_int a, pred_int b) with
      | Some fa, Some fb -> Some (op fa fb)
      | _ -> None
    in
    match p with
    | True -> Some (fun _ -> true)
    | False -> Some (fun _ -> false)
    | Cmp (op, a, b) -> (
        match num_int a with
        | None -> None
        | Some fa -> (
            (* Comparison against a constant — the dominant filter shape
               — inlines the int compare into one closure. *)
            match b with
            | Const (Value.Int k) ->
                Some
                  (match op with
                  | Eq -> fun t -> Stdlib.( = ) (fa t) k
                  | Ne -> fun t -> Stdlib.( <> ) (fa t) k
                  | Lt -> fun t -> Stdlib.( < ) (fa t) k
                  | Le -> fun t -> Stdlib.( <= ) (fa t) k
                  | Gt -> fun t -> Stdlib.( > ) (fa t) k
                  | Ge -> fun t -> Stdlib.( >= ) (fa t) k)
            | _ -> (
                match num_int b with
                | None -> None
                | Some fb ->
                    Some
                      (match op with
                      | Eq -> fun t -> Stdlib.( = ) (fa t) (fb t)
                      | Ne -> fun t -> Stdlib.( <> ) (fa t) (fb t)
                      | Lt -> fun t -> Stdlib.( < ) (fa t) (fb t)
                      | Le -> fun t -> Stdlib.( <= ) (fa t) (fb t)
                      | Gt -> fun t -> Stdlib.( > ) (fa t) (fb t)
                      | Ge -> fun t -> Stdlib.( >= ) (fa t) (fb t)))))
    | And (a, b) -> both a b (fun fa fb tuple -> fa tuple && fb tuple)
    | Or (a, b) -> both a b (fun fa fb tuple -> fa tuple || fb tuple)
    | Not a -> (
        match pred_int a with
        | Some fa -> Some (fun tuple -> not (fa tuple))
        | None -> None)
    | Is_null _ | Str_prefix _ -> None

  (* The public entry points splice the fast path in front of the generic
     closure.  [try] setup is a couple of nanoseconds; the records that
     take the handler pay the generic evaluation they would have paid
     anyway. *)
  let num e =
    let generic = num_gen e in
    match e with
    | Col _ | Const _ -> generic (* already a single load *)
    | _ -> (
        match num_int e with
        | Some fast ->
            fun tuple ->
              (try Value.Int (fast tuple) with Fallback -> generic tuple)
        | None -> generic)

  let pred p =
    let generic = pred_gen p in
    match p with
    | True | False -> generic
    | _ -> (
        match pred_int p with
        | Some fast ->
            fun tuple -> (try fast tuple with Fallback -> generic tuple)
        | None -> generic)
end

(* Composition through a projection: replace every column reference by
   what the projection computes there.  Evaluation is total (division by
   zero yields Null, never an exception), so substitution is exact:
   eval (subst bind e) t = eval e (projected t) for every tuple. *)
let rec subst bind e =
  match e with
  | Col i -> bind i
  | Const _ -> e
  | Add (a, b) -> Add (subst bind a, subst bind b)
  | Sub (a, b) -> Sub (subst bind a, subst bind b)
  | Mul (a, b) -> Mul (subst bind a, subst bind b)
  | Div (a, b) -> Div (subst bind a, subst bind b)
  | Mod (a, b) -> Mod (subst bind a, subst bind b)
  | Neg a -> Neg (subst bind a)

let rec subst_pred bind p =
  match p with
  | True | False -> p
  | Cmp (op, a, b) -> Cmp (op, subst bind a, subst bind b)
  | And (a, b) -> And (subst_pred bind a, subst_pred bind b)
  | Or (a, b) -> Or (subst_pred bind a, subst_pred bind b)
  | Not a -> Not (subst_pred bind a)
  | Is_null a -> Is_null (subst bind a)
  | Str_prefix (s, a) -> Str_prefix (s, subst bind a)

let rec num_cols acc = function
  | Col c -> c :: acc
  | Const _ -> acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b) ->
      num_cols (num_cols acc a) b
  | Neg a -> num_cols acc a

let rec pred_cols acc = function
  | True | False -> acc
  | Cmp (_, a, b) -> num_cols (num_cols acc a) b
  | And (p, q) | Or (p, q) -> pred_cols (pred_cols acc p) q
  | Not p -> pred_cols acc p
  | Is_null n | Str_prefix (_, n) -> num_cols acc n

let cols_of_num e = List.sort_uniq compare (num_cols [] e)
let cols_of_pred p = List.sort_uniq compare (pred_cols [] p)

let cmp_op_to_string = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec pp_num ppf = function
  | Col i -> Format.fprintf ppf "$%d" i
  | Const v -> Value.pp ppf v
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp_num a pp_num b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp_num a pp_num b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp_num a pp_num b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp_num a pp_num b
  | Mod (a, b) -> Format.fprintf ppf "(%a %% %a)" pp_num a pp_num b
  | Neg a -> Format.fprintf ppf "(- %a)" pp_num a

let rec pp_pred ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Cmp (op, a, b) ->
      Format.fprintf ppf "%a %s %a" pp_num a (cmp_op_to_string op) pp_num b
  | And (a, b) -> Format.fprintf ppf "(%a and %a)" pp_pred a pp_pred b
  | Or (a, b) -> Format.fprintf ppf "(%a or %a)" pp_pred a pp_pred b
  | Not a -> Format.fprintf ppf "(not %a)" pp_pred a
  | Is_null a -> Format.fprintf ppf "%a is null" pp_num a
  | Str_prefix (p, a) -> Format.fprintf ppf "%a like %S%%" pp_num a p
