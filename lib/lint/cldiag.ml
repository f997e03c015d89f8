(* Diagnostics for conclint, the source-level concurrency linter.

   Codes are stable so CI can grep them:
     CL000  parse-error          (a source file failed to parse)
     CL001  suspend-under-lock   (may-suspend call inside a held-mutex region)
     CL002  lock-order-cycle     (inconsistent lock acquisition order: ABBA)
     CL003  blocking-in-fiber    (blocking primitive reachable from fiber context)
     CL004  spawn-outside-sched  (Domain.spawn / Thread.create outside lib/sched) *)

type pos = { file : string; line : int }

type t = {
  code : string;
  slug : string;
  pos : pos;
  message : string;
  chain : string list; (* rendered call-chain lines, caller first *)
}

let v ~code ~slug ~pos ?(chain = []) message =
  { code; slug; pos; message; chain }

let compare a b =
  match String.compare a.pos.file b.pos.file with
  | 0 -> (
      match Int.compare a.pos.line b.pos.line with
      | 0 -> (
          match String.compare a.code b.code with
          | 0 -> String.compare a.message b.message
          | c -> c)
      | c -> c)
  | c -> c

let to_string d =
  let head =
    Printf.sprintf "%s:%d: error[%s %s] %s" d.pos.file d.pos.line d.code d.slug
      d.message
  in
  String.concat "\n" (head :: List.map (fun c -> "    " ^ c) d.chain)
