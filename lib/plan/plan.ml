module Schema = Volcano_tuple.Schema
module Expr = Volcano_tuple.Expr
module Match_op = Volcano_ops.Match_op
module Exchange = Volcano.Exchange

type algo = Sort_based | Hash_based

type index_bound =
  | Ix_unbounded
  | Ix_inclusive of Volcano_tuple.Tuple.t
  | Ix_exclusive of Volcano_tuple.Tuple.t

type t =
  | Scan_table of string
  | Scan_table_slice of string
  | Scan_index of { index : string; lo : index_bound; hi : index_bound }
  | Scan_list of { arity : int; tuples : Volcano_tuple.Tuple.t list }
  | Generate of { arity : int; count : int; gen : int -> Volcano_tuple.Tuple.t }
  | Generate_slice of {
      arity : int;
      count : int;
      gen : int -> Volcano_tuple.Tuple.t;
    }
  | Generate_range of { start : int; count : int }
  | Filter of {
      pred : Expr.pred;
      mode : [ `Compiled | `Interpreted ];
      input : t;
    }
  | Project_cols of { cols : int list; input : t }
  | Project_exprs of { exprs : Expr.num list; input : t }
  | Sort of { key : Volcano_tuple.Support.sort_key; input : t }
  | Match of {
      algo : algo;
      kind : Match_op.kind;
      left_key : int list;
      right_key : int list;
      left : t;
      right : t;
    }
  | Cross of { left : t; right : t }
  | Theta_join of { pred : Expr.pred; left : t; right : t }
  | Aggregate of {
      algo : algo;
      group_by : int list;
      aggs : Volcano_ops.Aggregate.agg list;
      input : t;
    }
  | Distinct of { algo : algo; on : int list; input : t }
  | Division of {
      algo : [ `Hash | `Count | `Sort ];
      quotient : int list;
      divisor_attrs : int list;
      divisor_key : int list;
      dividend : t;
      divisor : t;
    }
  | Limit of { count : int; input : t }
  | Union_all of { left : t; right : t }
  | Choose of { decide : unit -> int; alternatives : t list }
  | Exchange of { cfg : Exchange.config; input : t }
  | Exchange_merge of {
      cfg : Exchange.config;
      key : Volcano_tuple.Support.sort_key;
      input : t;
    }
  | Interchange of { cfg : Exchange.config; input : t }
  | Remote of {
      cfg : Exchange.config;
      workers : int;
      task : string;
      input : t;
    }

let rec arity env plan =
  match plan with
  | Scan_table name | Scan_table_slice name ->
      let _, schema = Env.table env name in
      Schema.arity schema
  | Scan_index { index; _ } ->
      let _, file, _ = Env.index env index in
      let _ = file in
      (* the fetch returns base-table records; find its schema via the
         catalog *)
      let rec width = function
        | [] -> invalid_arg "Plan.arity: index over unregistered table"
        | name :: rest -> (
            match Env.table env name with
            | f, schema
              when Volcano_storage.Heap_file.name f
                   = Volcano_storage.Heap_file.name file ->
                let _ = f in
                Schema.arity schema
            | _ -> width rest
            | exception Not_found -> width rest)
      in
      width (Env.table_names env)
  | Scan_list { arity; _ } -> arity
  | Generate { arity; _ } | Generate_slice { arity; _ } -> arity
  | Generate_range _ -> 1
  | Filter { input; _ } -> arity env input
  | Project_cols { cols; _ } -> List.length cols
  | Project_exprs { exprs; _ } -> List.length exprs
  | Sort { input; _ } -> arity env input
  | Match { algo = _; kind; left; right; _ } ->
      Match_op.output_arity kind ~left_arity:(arity env left)
        ~right_arity:(arity env right)
  | Cross { left; right } | Theta_join { left; right; _ } ->
      arity env left + arity env right
  | Aggregate { group_by; aggs; _ } -> List.length group_by + List.length aggs
  | Distinct { input; _ } -> arity env input
  | Division { quotient; _ } -> List.length quotient
  | Limit { input; _ } -> arity env input
  | Union_all { left; _ } -> arity env left
  | Choose { alternatives; _ } -> (
      match alternatives with
      | [] -> invalid_arg "Plan.arity: Choose with no alternatives"
      | first :: _ -> arity env first)
  | Exchange { input; _ } | Exchange_merge { input; _ } | Interchange { input; _ }
    ->
      arity env input
  | Remote { input; _ } -> arity env input

let algo_to_string = function Sort_based -> "sort" | Hash_based -> "hash"

let cols_to_string cols =
  "[" ^ String.concat "," (List.map string_of_int cols) ^ "]"

let key_to_string key =
  "["
  ^ String.concat ","
      (List.map
         (fun (c, dir) ->
           string_of_int c
           ^ match dir with Volcano_tuple.Support.Asc -> "" | Desc -> " desc")
         key)
  ^ "]"

let cfg_to_string (cfg : Exchange.config) =
  let partition =
    match cfg.partition with
    | Exchange.Round_robin -> "round-robin"
    | Exchange.Hash_on cols -> "hash" ^ cols_to_string cols
    | Exchange.Range_on (c, _) -> Printf.sprintf "range[%d]" c
    | Exchange.Custom _ -> "custom"
    | Exchange.Broadcast -> "broadcast"
  in
  Printf.sprintf "degree=%d packet=%d flow=%s partition=%s" cfg.degree
    cfg.packet_size
    (match cfg.flow_slack with Some n -> string_of_int n | None -> "off")
    partition

let slice_share ~rank ~size plan =
  let share count = max 0 ((count - rank + size - 1) / size) in
  match plan with
  | Generate_slice { count; gen; _ } ->
      Some (share count, fun i -> gen ((i * size) + rank))
  | Generate_range { start; count } ->
      Some
        ( share count,
          fun i -> [| Volcano_tuple.Value.Int (start + (i * size) + rank) |] )
  | _ -> None

(* One-line description of a node, without its children — the text of a
   tree line, shared by [pp] and the profiler's annotated tree (EXPLAIN
   ANALYZE). *)
let label plan =
  match plan with
  | Scan_table name -> Printf.sprintf "scan %s" name
  | Scan_index { index; _ } -> Printf.sprintf "index-scan %s" index
  | Scan_table_slice name -> Printf.sprintf "scan-slice %s" name
  | Scan_list { tuples; _ } ->
      Printf.sprintf "scan-list (%d tuples)" (List.length tuples)
  | Generate { count; _ } -> Printf.sprintf "generate (%d tuples)" count
  | Generate_slice { count; _ } ->
      Printf.sprintf "generate-slice (%d tuples)" count
  | Generate_range { start; count } ->
      Printf.sprintf "generate-range [%d, %d)" start (start + count)
  | Filter { pred; mode; _ } ->
      Format.asprintf "filter (%s) %a"
        (match mode with `Compiled -> "compiled" | `Interpreted -> "interpreted")
        Expr.pp_pred pred
  | Project_cols { cols; _ } -> Printf.sprintf "project %s" (cols_to_string cols)
  | Project_exprs { exprs; _ } ->
      Printf.sprintf "project (%d exprs)" (List.length exprs)
  | Sort { key; _ } -> Printf.sprintf "sort %s" (key_to_string key)
  | Match { algo; kind; left_key; right_key; _ } ->
      Printf.sprintf "%s-%s on %s=%s" (algo_to_string algo)
        (Match_op.to_string kind) (cols_to_string left_key)
        (cols_to_string right_key)
  | Cross _ -> "cartesian-product"
  | Theta_join { pred; _ } ->
      Format.asprintf "nested-loops-join %a" Expr.pp_pred pred
  | Aggregate { algo; group_by; aggs; _ } ->
      Printf.sprintf "%s-aggregate by %s (%d aggs)" (algo_to_string algo)
        (cols_to_string group_by) (List.length aggs)
  | Distinct { algo; on; _ } ->
      Printf.sprintf "%s-distinct on %s" (algo_to_string algo)
        (cols_to_string on)
  | Division { algo; quotient; divisor_attrs; _ } ->
      Printf.sprintf "%s-division quotient=%s attrs=%s"
        (match algo with `Hash -> "hash" | `Count -> "count" | `Sort -> "sort")
        (cols_to_string quotient)
        (cols_to_string divisor_attrs)
  | Limit { count; _ } -> Printf.sprintf "limit %d" count
  | Union_all _ -> "union-all"
  | Choose { alternatives; _ } ->
      Printf.sprintf "choose-plan (%d alternatives)" (List.length alternatives)
  | Exchange { cfg; _ } -> Printf.sprintf "exchange (%s)" (cfg_to_string cfg)
  | Exchange_merge { cfg; key; _ } ->
      Printf.sprintf "exchange-merge %s (%s)" (key_to_string key)
        (cfg_to_string cfg)
  | Interchange { cfg; _ } ->
      Printf.sprintf "interchange (%s)" (cfg_to_string cfg)
  | Remote { cfg; workers; task; _ } ->
      Printf.sprintf "remote-exchange workers=%d task=%S (%s)" workers task
        (cfg_to_string cfg)

let children = function
  | Scan_table _ | Scan_table_slice _ | Scan_index _ | Scan_list _ | Generate _
  | Generate_slice _ | Generate_range _ ->
      []
  | Filter { input; _ }
  | Project_cols { input; _ }
  | Project_exprs { input; _ }
  | Sort { input; _ }
  | Aggregate { input; _ }
  | Distinct { input; _ }
  | Limit { input; _ }
  | Exchange { input; _ }
  | Exchange_merge { input; _ }
  | Interchange { input; _ }
  | Remote { input; _ } ->
      [ input ]
  | Match { left; right; _ }
  | Cross { left; right }
  | Theta_join { left; right; _ }
  | Union_all { left; right } ->
      [ left; right ]
  | Division { dividend; divisor; _ } -> [ dividend; divisor ]
  | Choose { alternatives; _ } -> alternatives

let rec pp_indented ppf indent plan =
  Format.fprintf ppf "%s%s" (String.make (indent * 2) ' ') (label plan);
  Format.pp_print_newline ppf ();
  List.iter (pp_indented ppf (indent + 1)) (children plan)

let pp ppf plan = pp_indented ppf 0 plan

let explain env plan =
  Format.asprintf "%a-- output arity: %d@." pp plan (arity env plan)
