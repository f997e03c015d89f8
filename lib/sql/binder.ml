module Expr = Volcano_tuple.Expr
module Value = Volcano_tuple.Value
module Agg = Volcano_ops.Aggregate
module Support = Volcano_tuple.Support
module Shard = Volcano_storage.Shard
module Schema = Volcano_tuple.Schema
module Env = Volcano_plan.Env
module Heap_file = Volcano_storage.Heap_file
module W = Volcano_wisconsin.Wisconsin

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type kind =
  | K_table of string
  | K_range of int
  | K_wisconsin of { rows : int; seed : int64 option }

type source = {
  alias : string;
  kind : kind;
  schema : (string * Value.ty) array;
  rows : int;
  offset : int;
  parts : (Shard.spec * int) option;
}

type conjunct = {
  pred : Expr.pred;
  refs : int list;
  equi : (int * int) option;
  sel : float;
}

type shape =
  | Flat of Expr.num list
  | Grouped of { keys : int list; aggs : Agg.agg list; post : Expr.num list }

type select = {
  sources : source array;
  conjuncts : conjunct list;
  shape : shape;
  distinct : bool;
  order_by : (int * Support.direction) list;
  limit : int option;
  out_names : string list;
  out_tys : Value.ty list;
}

type query = Q_select of select | Q_union of query * query

let ty_name = function
  | Value.Tint -> "int"
  | Value.Tfloat -> "float"
  | Value.Tstr -> "string"

let schema_fields schema =
  Array.map
    (fun (f : Schema.field) -> (f.Schema.name, f.Schema.ty))
    (Schema.fields schema)

(* --- sources ---------------------------------------------------------- *)

let default_alias = function
  | Ast.Table { name; _ } -> name
  | Ast.Range _ -> "generate"
  | Ast.Wisconsin _ -> "wisconsin"

let bind_source env offset ref_ =
  let alias =
    match ref_ with
    | Ast.Table { alias; _ } | Ast.Range { alias; _ }
    | Ast.Wisconsin { alias; _ } ->
        Option.value alias ~default:(default_alias ref_)
  in
  match ref_ with
  | Ast.Table { name; _ } -> (
      match Env.table env name with
      | exception Not_found ->
          let known = List.sort compare (Env.table_names env) in
          fail "unknown table %S%s" name
            (if known = [] then ""
             else " (catalog: " ^ String.concat ", " known ^ ")")
      | file, schema ->
          let parts =
            match Shard.find (Env.catalog env) name with
            | Some entry -> Some (entry.Shard.spec, entry.Shard.parts)
            | None -> None
          in
          {
            alias;
            kind = K_table name;
            schema = schema_fields schema;
            rows = Heap_file.record_count file;
            offset;
            parts;
          })
  | Ast.Range { count; _ } ->
      if count < 0 then fail "generate(%d): negative count" count;
      {
        alias;
        kind = K_range count;
        schema = [| ("i", Value.Tint) |];
        rows = count;
        offset;
        parts = None;
      }
  | Ast.Wisconsin { rows; seed; _ } ->
      if rows < 0 then fail "wisconsin(%d): negative row count" rows;
      {
        alias;
        kind = K_wisconsin { rows; seed = Option.map Int64.of_int seed };
        schema = schema_fields W.schema;
        rows;
        offset;
        parts = None;
      }

(* --- name resolution -------------------------------------------------- *)

let resolver sources =
  let find_in src name =
    let found = ref None in
    Array.iteri
      (fun j (n, ty) ->
        if n = name && !found = None then found := Some (src.offset + j, ty))
      src.schema;
    !found
  in
  fun qualifier name ->
    match qualifier with
    | Some q -> (
        match Array.find_opt (fun s -> s.alias = q) sources with
        | None -> fail "unknown table alias %S in %s.%s" q q name
        | Some src -> (
            match find_in src name with
            | Some hit -> hit
            | None -> fail "no column %S in %s" name q))
    | None -> (
        let hits =
          Array.to_list sources |> List.filter_map (fun s -> find_in s name)
        in
        match hits with
        | [ hit ] -> hit
        | [] -> fail "unknown column %S" name
        | _ :: _ -> fail "ambiguous column %S (qualify it)" name)

(* --- scalar lowering -------------------------------------------------- *)

let numeric what = function
  | Value.Tint | Value.Tfloat -> ()
  | Value.Tstr -> fail "%s requires a numeric argument, got string" what

let join_ty a b =
  match (a, b) with
  | Value.Tfloat, _ | _, Value.Tfloat -> Value.Tfloat
  | _ -> Value.Tint

(* [lower_num] lowers a scalar expression; [agg] handles Agg nodes (the
   scalar contexts reject them, grouped select items map them to
   aggregate output slots). *)
let rec lower_num resolve ~agg e =
  match e with
  | Ast.Col (q, n) ->
      let g, ty = resolve q n in
      (Expr.Col g, ty)
  | Ast.Int n -> (Expr.Const (Value.Int n), Value.Tint)
  | Ast.Float f -> (Expr.Const (Value.Float f), Value.Tfloat)
  | Ast.Str s -> (Expr.Const (Value.Str s), Value.Tstr)
  | Ast.Neg a ->
      let e, ty = lower_num resolve ~agg a in
      numeric "unary minus" ty;
      (Expr.Neg e, ty)
  | Ast.Bin (op, a, b) ->
      let ea, ta = lower_num resolve ~agg a in
      let eb, tb = lower_num resolve ~agg b in
      numeric "arithmetic" ta;
      numeric "arithmetic" tb;
      let node =
        match op with
        | Ast.Add -> Expr.Add (ea, eb)
        | Ast.Sub -> Expr.Sub (ea, eb)
        | Ast.Mul -> Expr.Mul (ea, eb)
        | Ast.Div -> Expr.Div (ea, eb)
        | Ast.Mod ->
            if ta <> Value.Tint || tb <> Value.Tint then
              fail "%% requires integer arguments";
            Expr.Mod (ea, eb)
      in
      (node, join_ty ta tb)
  | Ast.Agg _ -> agg e
  | Ast.Cmp _ | Ast.And _ | Ast.Or _ | Ast.Not _ | Ast.Is_null _ ->
      fail "boolean expression %s where a value is expected"
        (Ast.expr_to_string e)

let no_aggs_here what e =
  ignore e;
  fail "aggregates are not allowed in %s" what

let rec lower_pred resolve ~what e =
  match e with
  | Ast.Cmp (op, a, b) ->
      let ea, ta = lower_num resolve ~agg:(no_aggs_here what) a in
      let eb, tb = lower_num resolve ~agg:(no_aggs_here what) b in
      (match (ta, tb) with
      | Value.Tstr, Value.Tstr -> ()
      | Value.Tstr, _ | _, Value.Tstr ->
          fail "cannot compare %s with %s in %s" (ty_name ta) (ty_name tb)
            (Ast.expr_to_string e)
      | _ -> ());
      let sel =
        match op with Expr.Eq -> 0.1 | Expr.Ne -> 0.9 | _ -> 0.3
      in
      (Expr.Cmp (op, ea, eb), sel)
  | Ast.And (a, b) ->
      let pa, sa = lower_pred resolve ~what a in
      let pb, sb = lower_pred resolve ~what b in
      (Expr.And (pa, pb), sa *. sb)
  | Ast.Or (a, b) ->
      let pa, sa = lower_pred resolve ~what a in
      let pb, sb = lower_pred resolve ~what b in
      (Expr.Or (pa, pb), sa +. sb -. (sa *. sb))
  | Ast.Not a ->
      let pa, sa = lower_pred resolve ~what a in
      (Expr.Not pa, 1.0 -. sa)
  | Ast.Is_null { neg; arg } ->
      let e, _ = lower_num resolve ~agg:(no_aggs_here what) arg in
      if neg then (Expr.Not (Expr.Is_null e), 0.95) else (Expr.Is_null e, 0.05)
  | _ -> fail "%s expects a boolean, got %s" what (Ast.expr_to_string e)

(* --- conjunct pool ---------------------------------------------------- *)

let rec split_and = function
  | Ast.And (a, b) -> split_and a @ split_and b
  | e -> [ e ]

let src_of_col sources g =
  let hit = ref (-1) in
  Array.iteri
    (fun i s ->
      if g >= s.offset && g < s.offset + Array.length s.schema then hit := i)
    sources;
  !hit

let conjunct sources resolve ~what e =
  let pred, sel = lower_pred resolve ~what e in
  let refs =
    List.sort_uniq compare
      (List.map (src_of_col sources) (Expr.cols_of_pred pred))
  in
  let equi =
    match pred with
    | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b)
      when src_of_col sources a <> src_of_col sources b ->
        Some (a, b)
    | _ -> None
  in
  { pred; refs; equi; sel }

(* --- select ----------------------------------------------------------- *)

let rec contains_agg = function
  | Ast.Agg _ -> true
  | Ast.Col _ | Ast.Int _ | Ast.Float _ | Ast.Str _ -> false
  | Ast.Neg a | Ast.Not a | Ast.Is_null { arg = a; _ } -> contains_agg a
  | Ast.Bin (_, a, b) | Ast.Cmp (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) ->
      contains_agg a || contains_agg b

let item_name item =
  match item with
  | Ast.Sel { alias = Some a; _ } -> a
  | Ast.Sel { expr = Ast.Col (_, n); alias = None } -> n
  | Ast.Sel { expr; alias = None } -> Ast.expr_to_string expr
  | Ast.Star -> "*"

(* outputs: per output column, the defining AST (for ORDER BY structural
   matching), its name, its type. *)
type out_col = { o_ast : Ast.expr; o_name : string; o_ty : Value.ty }

let resolve_order_by outs items =
  let arity = List.length outs in
  let outs = Array.of_list outs in
  List.map
    (fun (e, dir) ->
      let pos =
        match e with
        | Ast.Int k ->
            if k < 1 || k > arity then
              fail "ORDER BY position %d out of range 1..%d" k arity;
            k - 1
        | _ -> (
            let by_name =
              match e with
              | Ast.Col (None, n) ->
                  let hits = ref [] in
                  Array.iteri
                    (fun i o -> if o.o_name = n then hits := i :: !hits)
                    outs;
                  (match !hits with
                  | [ i ] -> Some i
                  | [] -> None
                  | _ -> fail "ORDER BY %s is ambiguous" n)
              | _ -> None
            in
            match by_name with
            | Some i -> i
            | None -> (
                let structural = ref None in
                Array.iteri
                  (fun i o ->
                    if o.o_ast = e && !structural = None then
                      structural := Some i)
                  outs;
                match !structural with
                | Some i -> i
                | None ->
                    fail
                      "ORDER BY %s must name an output column (by alias, \
                       position, or the exact select expression)"
                      (Ast.expr_to_string e)))
      in
      (pos, dir))
    items

let bind_select env (s : Ast.select) : select =
  let refs = s.from :: List.map (fun j -> j.Ast.table) s.joins in
  let sources =
    let offset = ref 0 in
    Array.of_list
      (List.map
         (fun r ->
           let src = bind_source env !offset r in
           offset := !offset + Array.length src.schema;
           src)
         refs)
  in
  (let seen = Hashtbl.create 4 in
   Array.iter
     (fun src ->
       if Hashtbl.mem seen src.alias then
         fail "duplicate table alias %S (use AS to rename)" src.alias;
       Hashtbl.add seen src.alias ())
     sources);
  let resolve = resolver sources in
  let conjuncts =
    List.concat_map
      (fun (what, e) ->
        List.map (conjunct sources resolve ~what) (split_and e))
      (List.map (fun j -> ("ON", j.Ast.on)) s.joins
      @ match s.where with None -> [] | Some w -> [ ("WHERE", w) ])
  in
  let grouped =
    s.group_by <> []
    || List.exists
         (function Ast.Star -> false | Ast.Sel { expr; _ } -> contains_agg expr)
         s.items
  in
  let shape, outs =
    if not grouped then begin
      let outs =
        List.concat_map
          (function
            | Ast.Star ->
                Array.to_list sources
                |> List.concat_map (fun src ->
                       Array.to_list src.schema
                       |> List.map (fun (n, ty) ->
                              {
                                o_ast = Ast.Col (Some src.alias, n);
                                o_name = n;
                                o_ty = ty;
                              }))
            | Ast.Sel { expr; alias } ->
                let _, ty =
                  lower_num resolve ~agg:(no_aggs_here "a flat select") expr
                in
                [
                  {
                    o_ast = expr;
                    o_name =
                      Option.value alias
                        ~default:(item_name (Ast.Sel { expr; alias }));
                    o_ty = ty;
                  };
                ])
          s.items
      in
      let exprs =
        List.map
          (fun o -> fst (lower_num resolve ~agg:(no_aggs_here "select") o.o_ast))
          outs
      in
      (Flat exprs, outs)
    end
    else begin
      let keys =
        List.map
          (fun e ->
            match e with
            | Ast.Col (q, n) -> fst (resolve q n)
            | _ ->
                fail "GROUP BY takes bare columns, not %s"
                  (Ast.expr_to_string e))
          s.group_by
      in
      (match
         List.fold_left
           (fun seen k -> if List.mem k seen then raise Exit else k :: seen)
           [] keys
       with
      | _ -> ()
      | exception Exit -> fail "duplicate GROUP BY column");
      let k = List.length keys in
      let aggs = ref [] in
      let slot_of a =
        let rec go i = function
          | [] ->
              aggs := !aggs @ [ a ];
              i
          | hd :: _ when hd = a -> i
          | _ :: tl -> go (i + 1) tl
        in
        go 0 !aggs
      in
      let rec lower_g e =
        match e with
        | Ast.Agg (Ast.A_count, None) ->
            (Expr.Col (k + slot_of Agg.Count), Value.Tint)
        | Ast.Agg (Ast.A_count, Some _) ->
            fail "COUNT(expr) is not supported; use COUNT(*)"
        | Ast.Agg (fn, None) ->
            fail "%s requires an argument" (Ast.agg_str fn)
        | Ast.Agg (fn, Some arg) -> (
            let num, ty =
              lower_num resolve ~agg:(fun _ -> fail "aggregates cannot nest")
                arg
            in
            match fn with
            | Ast.A_count -> assert false
            | Ast.A_sum ->
                numeric "SUM" ty;
                (Expr.Col (k + slot_of (Agg.Sum num)), ty)
            | Ast.A_min -> (Expr.Col (k + slot_of (Agg.Min num)), ty)
            | Ast.A_max -> (Expr.Col (k + slot_of (Agg.Max num)), ty)
            | Ast.A_avg ->
                (* AVG decomposes to "SUM"/"COUNT(*)" here, once, so serial
                   and parallel plans agree bit-for-bit (integer
                   division for integer arguments). *)
                numeric "AVG" ty;
                let sum = slot_of (Agg.Sum num) in
                let cnt = slot_of Agg.Count in
                (Expr.Div (Expr.Col (k + sum), Expr.Col (k + cnt)), ty))
        | Ast.Col (q, n) -> (
            let g, ty = resolve q n in
            match List.mapi (fun i key -> (i, key)) keys
                  |> List.find_opt (fun (_, key) -> key = g)
            with
            | Some (i, _) -> (Expr.Col i, ty)
            | None ->
                fail
                  "column %s must appear in GROUP BY or inside an aggregate"
                  (Ast.expr_to_string e))
        | Ast.Int n -> (Expr.Const (Value.Int n), Value.Tint)
        | Ast.Float f -> (Expr.Const (Value.Float f), Value.Tfloat)
        | Ast.Str str -> (Expr.Const (Value.Str str), Value.Tstr)
        | Ast.Neg a ->
            let e, ty = lower_g a in
            numeric "unary minus" ty;
            (Expr.Neg e, ty)
        | Ast.Bin (op, a, b) ->
            let ea, ta = lower_g a in
            let eb, tb = lower_g b in
            numeric "arithmetic" ta;
            numeric "arithmetic" tb;
            let node =
              match op with
              | Ast.Add -> Expr.Add (ea, eb)
              | Ast.Sub -> Expr.Sub (ea, eb)
              | Ast.Mul -> Expr.Mul (ea, eb)
              | Ast.Div -> Expr.Div (ea, eb)
              | Ast.Mod ->
                  if ta <> Value.Tint || tb <> Value.Tint then
                    fail "%% requires integer arguments";
                  Expr.Mod (ea, eb)
            in
            (node, join_ty ta tb)
        | Ast.Cmp _ | Ast.And _ | Ast.Or _ | Ast.Not _ | Ast.Is_null _ ->
            fail "boolean expression %s where a value is expected"
              (Ast.expr_to_string e)
      in
      let outs =
        List.map
          (function
            | Ast.Star ->
                fail "SELECT * cannot be combined with GROUP BY or aggregates"
            | Ast.Sel { expr; alias } ->
                let post, ty = lower_g expr in
                ( post,
                  {
                    o_ast = expr;
                    o_name =
                      Option.value alias
                        ~default:(item_name (Ast.Sel { expr; alias }));
                    o_ty = ty;
                  } ))
          s.items
      in
      (Grouped { keys; aggs = !aggs; post = List.map fst outs },
       List.map snd outs)
    end
  in
  let order_by = resolve_order_by outs s.order_by in
  {
    sources;
    conjuncts;
    shape;
    distinct = s.distinct;
    order_by;
    limit = s.limit;
    out_names = List.map (fun o -> o.o_name) outs;
    out_tys = List.map (fun o -> o.o_ty) outs;
  }

let rec bind env = function
  | Ast.Select s -> Q_select (bind_select env s)
  | Ast.Union_all (a, b) ->
      let qa = bind env a and qb = bind env b in
      let rec tys = function
        | Q_select s -> s.out_tys
        | Q_union (l, _) -> tys l
      in
      let ta = tys qa and tb = tys qb in
      if List.length ta <> List.length tb then
        fail
          "UNION ALL requires union-compatible inputs; left has %d \
           column(s), right has %d"
          (List.length ta) (List.length tb);
      List.iteri
        (fun i (x, y) ->
          if x <> y then
            fail "UNION ALL column %d has type %s on the left and %s on \
                  the right"
              (i + 1) (ty_name x) (ty_name y))
        (List.combine ta tb);
      Q_union (qa, qb)
