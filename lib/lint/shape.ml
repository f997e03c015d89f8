(* Shape extraction: compress every function body in a source file down to
   the concurrency-relevant events, preserving evaluation order and
   branch structure.  The later passes (effect propagation, lock-region
   walking) work on this small IR instead of the full parsetree.

   Names are normalized to their last two path components after expanding
   file-local module aliases (so [module Sched = Volcano_sched.Sched]
   makes [Sched.suspend] resolve to the same key everywhere).  Lock keys
   are the mutex's field or variable name qualified by the innermost
   enclosing module, e.g. [Port:q_lock]. *)

module P = Parsetree

type pos = Cldiag.pos

type t =
  | Lock of string * pos (* Mutex.lock m *)
  | Unlock of string * pos (* Mutex.unlock m *)
  | Cond_wait of string option * pos (* Condition.wait cv m: key of m *)
  | Raise of pos (* raise / failwith / invalid_arg *)
  | Call of call
  | Branch of t list list (* if / match / try alternatives *)
  | Defer of t list (* lambda built here, run elsewhere *)

and call = {
  callee : string; (* normalized name, e.g. "Group.lookup_port" *)
  cpos : pos;
  applied : int; (* non-optional arguments at the call site *)
  recv_key : string option; (* lock key of the first argument, if any *)
  closures : t list list; (* literal fun arguments, in order *)
  heads : string list; (* function idents passed as arguments *)
}

type node = {
  key : string; (* "Module.fn" or "Module.fn.inner" *)
  display : string;
  npos : pos;
  arity : int; (* non-optional parameters *)
  body : t list;
}

type env = {
  file : string;
  modname : string; (* innermost enclosing module, for lock keys *)
  owner : string; (* enclosing node key, for nested definitions *)
  aliases : (string * string list) list ref;
  out : node list ref;
}

let pos_of env (loc : Location.t) =
  { Cldiag.file = env.file; line = loc.Location.loc_start.Lexing.pos_lnum }

(* Strip the "@line" uniquifiers nested-definition keys carry, for
   human-facing names. *)
let pretty key = Str.global_replace (Str.regexp "@[0-9]+") "" key

(* ------------------------------------------------------------------ *)
(* Names                                                               *)

let resolve env scope lid =
  match Longident.flatten lid with
  | [ x ] -> (
      match List.assoc_opt x scope with
      | Some "" | None -> x (* parameter or true primitive *)
      | Some key -> key)
  | comps -> (
      let comps =
        match comps with
        | m :: rest -> (
            match List.assoc_opt m !(env.aliases) with
            | Some expansion -> expansion @ rest
            | None -> comps)
        | [] -> comps
      in
      match List.rev comps with
      | f :: m :: _ -> m ^ "." ^ f
      | [ f ] -> f
      | [] -> "?")

(* The mutex expression behind Mutex.lock / Condition.wait: a variable,
   a record field ([t.shared.lock]) or an array slot ([pool.locks.(i)]).
   The key is the final name, qualified by the enclosing module. *)
let rec key_of_expr env (e : P.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
      Some (env.modname ^ ":" ^ Longident.last txt)
  | Pexp_field (_, { txt; _ }) -> Some (env.modname ^ ":" ^ Longident.last txt)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, a) :: _)
    when Longident.last txt = "get" || Longident.last txt = "unsafe_get" ->
      key_of_expr env a
  | Pexp_constraint (e, _) -> key_of_expr env e
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Functions                                                           *)

let rec arity_of (e : P.expression) =
  match e.pexp_desc with
  | Pexp_fun (Optional _, _, _, body) -> arity_of body
  | Pexp_fun (_, _, _, body) -> 1 + arity_of body
  | Pexp_newtype (_, body) -> arity_of body
  | Pexp_constraint (body, _) -> arity_of body
  | Pexp_function _ -> 1
  | _ -> 0

let pat_names p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it' pp ->
          (match pp.P.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it' pp);
    }
  in
  it.pat it p;
  !acc

let rec params_of (e : P.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, p, body) -> pat_names p @ params_of body
  | Pexp_newtype (_, body) -> params_of body
  | Pexp_constraint (body, _) -> params_of body
  | _ -> []

let var_name (p : P.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

let is_raise name =
  match name with
  | "raise" | "raise_notrace" | "failwith" | "invalid_arg" | "Stdlib.raise"
  | "Stdlib.raise_notrace" | "Stdlib.failwith" | "Stdlib.invalid_arg" ->
      true
  | _ -> false

let nolabel_args args =
  List.filter_map
    (fun (lbl, a) ->
      match lbl with Asttypes.Nolabel -> Some a | _ -> None)
    args

(* ------------------------------------------------------------------ *)
(* Expression walk                                                     *)

let rec shapes env scope (e : P.expression) : t list =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
      apply env scope (resolve env scope txt) (pos_of env loc) args
  | Pexp_fun _ | Pexp_function _ ->
      (* A lambda in non-argument position: built now, run elsewhere in
         an unknown lock context. *)
      [ Defer (fun_body env scope e) ]
  | Pexp_let (rf, vbs, body) ->
      let fn_vbs, val_vbs =
        List.partition
          (fun vb -> arity_of vb.P.pvb_expr > 0 && var_name vb.P.pvb_pat <> None)
          vbs
      in
      (* Nested definitions are keyed with their definition line so two
         same-named locals (e.g. a [wait] helper in each of two branches)
         stay distinct in the call graph. *)
      let nested_key vb name =
        Printf.sprintf "%s.%s@%d" env.owner name
          (pos_of env vb.P.pvb_loc).line
      in
      let scope' =
        List.fold_left
          (fun sc vb ->
            match var_name vb.P.pvb_pat with
            | Some name -> (name, nested_key vb name) :: sc
            | None -> sc)
          scope fn_vbs
      in
      let def_scope =
        match rf with Asttypes.Recursive -> scope' | Nonrecursive -> scope
      in
      List.iter
        (fun vb ->
          match var_name vb.P.pvb_pat with
          | Some name ->
              emit_node env def_scope ~key:(nested_key vb name)
                ~display:(pretty env.owner ^ "." ^ name)
                vb.P.pvb_expr
          | None -> ())
        fn_vbs;
      let now =
        List.concat_map (fun vb -> shapes env def_scope vb.P.pvb_expr) val_vbs
      in
      now @ shapes env scope' body
  | Pexp_sequence (a, b) -> shapes env scope a @ shapes env scope b
  | Pexp_ifthenelse (c, t, eo) ->
      shapes env scope c
      @ [
          Branch
            [
              shapes env scope t;
              (match eo with Some e -> shapes env scope e | None -> []);
            ];
        ]
  | Pexp_match (scrut, cases) ->
      shapes env scope scrut @ [ Branch (List.map (case_shapes env scope) cases) ]
  | Pexp_try (body, cases) ->
      [ Branch (shapes env scope body :: List.map (case_shapes env scope) cases) ]
  | Pexp_while (c, b) ->
      shapes env scope c @ [ Branch [ shapes env scope b; [] ] ]
  | Pexp_for (_, a, b, _, body) ->
      shapes env scope a @ shapes env scope b
      @ [ Branch [ shapes env scope body; [] ] ]
  | _ ->
      (* Generic: concatenate the shapes of immediate sub-expressions. *)
      let acc = ref [] in
      let it =
        {
          Ast_iterator.default_iterator with
          expr = (fun _ child -> acc := shapes env scope child :: !acc);
        }
      in
      Ast_iterator.default_iterator.expr it e;
      List.concat (List.rev !acc)

and case_shapes env scope (c : P.case) =
  (match c.pc_guard with Some g -> shapes env scope g | None -> [])
  @ shapes env scope c.pc_rhs

(* Body of a literal function, with its parameters shadowing the scope. *)
and fun_body env scope (e : P.expression) : t list =
  let scope = List.map (fun p -> (p, "")) (params_of e) @ scope in
  let rec strip (e : P.expression) =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, body) -> strip body
    | Pexp_newtype (_, body) -> strip body
    | Pexp_constraint (body, _) -> strip body
    | Pexp_function cases -> [ Branch (List.map (case_shapes env scope) cases) ]
    | _ -> shapes env scope e
  in
  strip e

and apply env scope name cpos args : t list =
  let positional = nolabel_args args in
  let arg_at n = List.nth_opt positional n in
  let walk_args ?(skip = []) () =
    List.concat_map
      (fun (_, a) ->
        if List.memq a skip then [] else shapes env scope a)
      args
  in
  match name with
  | "Mutex.lock" -> (
      match arg_at 0 with
      | Some m -> (
          match key_of_expr env m with
          | Some k -> [ Lock (k, cpos) ]
          | None -> [ Lock (env.modname ^ ":?", cpos) ])
      | None -> [])
  | "Mutex.unlock" -> (
      match arg_at 0 with
      | Some m -> (
          match key_of_expr env m with
          | Some k -> [ Unlock (k, cpos) ]
          | None -> [ Unlock (env.modname ^ ":?", cpos) ])
      | None -> [])
  | "Condition.wait" ->
      let key = Option.bind (arg_at 1) (key_of_expr env) in
      [ Cond_wait (key, cpos) ]
  | name when is_raise name -> walk_args () @ [ Raise cpos ]
  | _ ->
      let is_fun (a : P.expression) = arity_of a > 0 in
      let closures =
        List.filter_map
          (fun (_, a) -> if is_fun a then Some (fun_body env scope a) else None)
          args
      in
      let heads =
        List.filter_map
          (fun ((_, a) : Asttypes.arg_label * P.expression) ->
            match a.pexp_desc with
            | Pexp_ident { txt; _ } when not (is_fun a) -> (
                match resolve env scope txt with
                | n when String.contains n '.' -> Some n
                | _ -> None)
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
                match resolve env scope txt with
                | "" -> None
                | n when String.contains n '.' -> Some n
                | _ -> None)
            | _ -> None)
          args
      in
      let skip =
        List.filter_map (fun (_, a) -> if is_fun a then Some a else None) args
      in
      let before = walk_args ~skip () in
      before
      @ [
          Call
            {
              callee = name;
              cpos;
              applied =
                List.length
                  (List.filter
                     (fun ((lbl, _) : Asttypes.arg_label * P.expression) ->
                       match lbl with Optional _ -> false | _ -> true)
                     args);
              recv_key = Option.bind (arg_at 0) (key_of_expr env);
              closures;
              heads;
            };
        ]

and emit_node env scope ~key ~display (e : P.expression) =
  let env = { env with owner = key } in
  let body = fun_body env scope e in
  env.out :=
    {
      key;
      display;
      npos = pos_of env e.pexp_loc;
      arity = arity_of e;
      body;
    }
    :: !(env.out)

(* ------------------------------------------------------------------ *)
(* Structure walk                                                      *)

let rec unwrap_module (me : P.module_expr) =
  match me.pmod_desc with
  | Pmod_constraint (me, _) -> unwrap_module me
  | Pmod_functor (_, me) -> unwrap_module me
  | d -> d

let rec do_structure env scope (items : P.structure) =
  ignore (List.fold_left (do_item env) scope items)

and do_item env scope (item : P.structure_item) =
  match item.pstr_desc with
  | Pstr_value (rf, vbs) ->
      let scope' =
        List.fold_left
          (fun sc vb ->
            match var_name vb.P.pvb_pat with
            | Some name when arity_of vb.P.pvb_expr > 0 ->
                (name, env.modname ^ "." ^ name) :: sc
            | _ -> sc)
          scope vbs
      in
      let def_scope =
        match rf with Asttypes.Recursive -> scope' | Nonrecursive -> scope
      in
      List.iter
        (fun vb ->
          match var_name vb.P.pvb_pat with
          | Some name when arity_of vb.P.pvb_expr > 0 ->
              emit_node env def_scope
                ~key:(env.modname ^ "." ^ name)
                ~display:(env.modname ^ "." ^ name)
                vb.P.pvb_expr
          | _ ->
              (* Top-level effectful binding: runs at module init. *)
              let line = (pos_of env vb.P.pvb_loc).line in
              let key = Printf.sprintf "%s._init%d" env.modname line in
              env.out :=
                {
                  key;
                  display = env.modname ^ " (module init)";
                  npos = pos_of env vb.P.pvb_loc;
                  arity = 0;
                  body = shapes { env with owner = key } def_scope vb.P.pvb_expr;
                }
                :: !(env.out))
        vbs;
      scope'
  | Pstr_eval (e, _) ->
      let line = (pos_of env item.pstr_loc).line in
      let key = Printf.sprintf "%s._init%d" env.modname line in
      env.out :=
        {
          key;
          display = env.modname ^ " (module init)";
          npos = pos_of env item.pstr_loc;
          arity = 0;
          body = shapes { env with owner = key } scope e;
        }
        :: !(env.out);
      scope
  | Pstr_module mb ->
      do_module env scope mb;
      scope
  | Pstr_recmodule mbs ->
      List.iter (do_module env scope) mbs;
      scope
  | _ -> scope

and do_module env scope (mb : P.module_binding) =
  let name = match mb.pmb_name.txt with Some n -> n | None -> "_" in
  match unwrap_module mb.pmb_expr with
  | Pmod_ident { txt; _ } ->
      env.aliases := (name, Longident.flatten txt) :: !(env.aliases)
  | Pmod_structure items ->
      do_structure { env with modname = name } scope items
  | _ -> ()

(* ------------------------------------------------------------------ *)

exception Parse_error of Cldiag.pos * string

let of_file path : node list =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      let ast =
        try Parse.implementation lexbuf
        with exn ->
          let line = lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum in
          let msg =
            match exn with
            | Syntaxerr.Error _ -> "syntax error"
            | e -> Printexc.to_string e
          in
          raise (Parse_error ({ file = path; line }, msg))
      in
      let modname =
        String.capitalize_ascii
          (Filename.remove_extension (Filename.basename path))
      in
      let env =
        { file = path; modname; owner = modname; aliases = ref []; out = ref [] }
      in
      do_structure env [] ast;
      List.rev !(env.out))
