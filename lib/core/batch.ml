type t = {
  open_ : unit -> unit;
  next : unit -> Packet.t option;
  close : unit -> unit;
}

let make ~open_ ~next ~close = { open_; next; close }

let open_ t = t.open_ ()
let next t = t.next ()
let close t = t.close ()

let default_size = 64

let validate ~batch_size =
  if batch_size = 0 then [] (* disabled: the record-at-a-time path *)
  else if batch_size < 1 || batch_size > Packet.max_capacity then
    [
      ( "batch-size",
        Printf.sprintf "batch size must be 0 (disabled) or in [1, %d]"
          Packet.max_capacity );
    ]
  else []

(* ------------------------------------------------------------------ *)
(* Fused pipelines                                                     *)

type cursor = {
  reset : unit -> unit;
  step : emit:(Volcano_tuple.Tuple.t -> unit) -> max:int -> int;
  stop : unit -> unit;
}

let fused ~batch_size ?(stage = fun k -> k) cursor =
  (match validate ~batch_size with
  | [] when batch_size > 0 -> ()
  | _ -> invalid_arg "Batch.fused: batch_size must be in [1, 255]");
  (* A fresh shell per batch, deliberately NOT one long-lived reused
     shell: a reused shell is promoted to the major heap after a few
     minor collections, and from then on every refill overwrites
     major-heap pointer fields.  Any per-record allocation downstream
     keeps OCaml 5's concurrent marking active, and each such overwrite
     then pays the deletion barrier — measured ~5x the cost of
     bump-allocating a young shell that dies with its batch.  [emit] is
     composed once and reaches the current shell through one cell. *)
  let shell = ref (Packet.create ~capacity:batch_size ~producer:0) in
  let emit = stage (fun tuple -> Packet.add !shell tuple) in
  let finished = ref true in
  {
    open_ =
      (fun () ->
        finished := false;
        cursor.reset ());
    next =
      (fun () ->
        if !finished then None
        else begin
          let packet = Packet.create ~capacity:batch_size ~producer:0 in
          shell := packet;
          (* The tight loop: step the source, bounded by the shell's
             remaining room (stages emit at most one record per input
             record, so the shell cannot overflow). *)
          let exhausted = ref false in
          while (not !exhausted) && not (Packet.is_full packet) do
            let room = Packet.capacity packet - Packet.length packet in
            if cursor.step ~emit ~max:room = 0 then exhausted := true
          done;
          if !exhausted then finished := true;
          if Packet.is_empty packet then None else Some packet
        end);
    close =
      (fun () ->
        finished := true;
        cursor.stop ());
  }

let generator_cursor ~count ~f =
  let pos = ref 0 in
  {
    reset = (fun () -> pos := 0);
    step =
      (fun ~emit ~max ->
        let i = !pos in
        let n = min max (count - i) in
        if n <= 0 then 0
        else begin
          for k = i to i + n - 1 do
            emit (f k)
          done;
          pos := i + n;
          n
        end);
    stop = (fun () -> ());
  }

let array_cursor tuples =
  let total = Array.length tuples in
  let pos = ref 0 in
  {
    reset = (fun () -> pos := 0);
    step =
      (fun ~emit ~max ->
        let i = !pos in
        let n = min max (total - i) in
        if n <= 0 then 0
        else begin
          for k = i to i + n - 1 do
            emit (Array.unsafe_get tuples k)
          done;
          pos := i + n;
          n
        end);
    stop = (fun () -> ());
  }

let iterator_cursor iter =
  (* Latched at end of stream, so a driver that steps again after a
     short step never pulls past the iterator's [None]. *)
  let ended = ref false in
  {
    reset =
      (fun () ->
        ended := false;
        Iterator.open_ iter);
    step =
      (fun ~emit ~max ->
        let n = ref 0 in
        while (not !ended) && !n < max do
          match Iterator.next iter with
          | Some tuple ->
              emit tuple;
              incr n
          | None -> ended := true
        done;
        !n);
    stop = (fun () -> Iterator.close iter);
  }

(* ------------------------------------------------------------------ *)
(* Record-at-a-time bridges                                            *)

let of_iterator ~batch_size iter = fused ~batch_size (iterator_cursor iter)

let to_iterator t =
  (* The fast path must stay closure-free and match-free: one bounds
     compare, one load, one [Some].  A drained sentinel (any packet with
     everything consumed) funnels the slow path into [refill], defined
     once per iterator rather than per call. *)
  let drained = Packet.create ~capacity:1 ~producer:0 in
  let current = ref drained in
  let pos = ref 0 in
  let len = ref 0 in
  let rec refill () =
    match t.next () with
    | None ->
        current := drained;
        pos := 0;
        len := 0;
        None
    | Some packet ->
        let n = Packet.length packet in
        (* The protocol says producers never hand over an empty packet,
           but a defensive skip costs nothing off the fast path. *)
        if n = 0 then refill ()
        else begin
          current := packet;
          pos := 1;
          len := n;
          Some (Packet.get packet 0)
        end
  in
  Iterator.make
    ~open_:(fun () ->
      current := drained;
      pos := 0;
      len := 0;
      t.open_ ())
    ~next:(fun () ->
      let i = !pos in
      if i < !len then begin
        pos := i + 1;
        Some (Packet.get !current i)
      end
      else refill ())
    ~close:(fun () ->
      current := drained;
      pos := 0;
      len := 0;
      t.close ())

let iter f t =
  t.open_ ();
  Fun.protect
    ~finally:(fun () -> t.close ())
    (fun () ->
      let rec drive () =
        match t.next () with
        | None -> ()
        | Some packet ->
            for i = 0 to Packet.length packet - 1 do
              f (Packet.get packet i)
            done;
            drive ()
      in
      drive ())

let consume t =
  let n = ref 0 in
  iter (fun _ -> incr n) t;
  !n
