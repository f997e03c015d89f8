(** The query-serving plane: a framed request/response protocol over a
    Unix-domain socket, a server with one fiber per connection on
    {!Volcano_sched.Sched.default}, and a client.

    The server is transport and policy only — [handle] owns query
    execution (the CLI wires it to a [Session] so admission control,
    deadlines, and cancellation are the runtime's).  Connections are
    persistent: each [Request] frame (an opaque task string) is answered
    by exactly one [Resp_ok] (rows) or [Resp_err] (site + message). *)

type handler = string -> (Volcano_tuple.Tuple.t list, string * string) result

module Server : sig
  type t

  val start :
    ?obs:Volcano_obs.Obs.t -> socket:string -> handle:handler -> unit -> t
  (** Bind [socket] (an owned path; any stale file is replaced), start
      the acceptor fiber, and return.  Each connection gets a fiber of its
      own; the listener and the connections are non-blocking, so an idle
      connection waits on the scheduler's poller and holds no pool worker.
      [handle] runs on the connection's fiber.  With [obs], per-request
      latency lands in the ["serve.latency_s"] histogram and counts in
      ["serve.requests"] / ["serve.errors"]. *)

  val stop : t -> unit
  (** Stop accepting, shut the live connections down, await the acceptor
      and close the listener, then await every connection fiber, each of
      which closes its own descriptor.  Also triggered remotely by a
      [Shutdown] frame — [stop] then finishes the teardown.  Idempotent.  Call it off the connection
      fibers (a handler that stops its own server would await itself). *)

  val wait : t -> unit
  (** Block until the server is stopped — by a client's [Shutdown] frame
      or a concurrent {!stop} — and finish the teardown.  The daemon's
      main loop. *)

  val requests : t -> int
  val errors : t -> int
end

module Client : sig
  type t

  val connect : socket:string -> t

  val query :
    t -> string -> (Volcano_tuple.Tuple.t list, string * string) result
  (** One request/response round trip.  [Error (site, message)] is the
      server-side query failure, site verbatim from [Query_failed].
      @raise End_of_file if the server went away. *)

  val shutdown_server : t -> unit
  (** Ask the server to stop serving (all connections included). *)

  val close : t -> unit
end
