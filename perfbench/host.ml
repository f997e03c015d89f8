(* The host fingerprint stamped on every result, and the validity rule
   for it: a run under an environment knob that changes how the engine
   executes measures a different program, so it is refused. *)

(* Knobs the libraries read at run time (pool size, spawn-per-task
   scheduling, vectorized batch size). *)
let behaviour_knobs = [ "VOLCANO_BATCH_SIZE"; "VOLCANO_SCHED"; "VOLCANO_WORKERS" ]

let volcano_env () =
  Array.to_list (Unix.environment ())
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i when String.starts_with ~prefix:"VOLCANO_" kv ->
             Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
         | _ -> None)
  |> List.sort compare

let validity () =
  match
    List.filter (fun (k, _) -> List.mem k behaviour_knobs) (volcano_env ())
  with
  | [] -> Ok ()
  | set ->
      Error
        ("behaviour knob set: "
        ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) set))

let fingerprint ~pool_workers ~batch_size =
  Volcano_obs.Jsonx.(
    Obj
      [
        ("nproc", Int Common.nproc);
        ("ocaml", String Sys.ocaml_version);
        ("sched_pool_workers", Int pool_workers);
        ("batch_size", Int batch_size);
        ("volcano_env", Obj (List.map (fun (k, v) -> (k, String v)) (volcano_env ())));
      ])
