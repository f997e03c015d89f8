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
(* Cursors                                                             *)

type cursor = {
  reset : unit -> unit;
  step : emit:(Volcano_tuple.Tuple.t -> unit) -> max:int -> int;
  stop : unit -> unit;
}

(* Bind the composed emit to the [emit] it was composed for, and
   recompose only when a driver passes a physically different one: every
   driver reuses one emit closure per open, so this costs one compare per
   step and no allocation. *)
let staged ~stage cursor =
  let last_emit = ref ignore in
  let composed = ref (stage ignore) in
  {
    cursor with
    step =
      (fun ~emit ~max ->
        if !last_emit != emit then begin
          composed := stage emit;
          last_emit := emit
        end;
        cursor.step ~emit:!composed ~max);
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
(* The record-at-a-time bridge                                         *)

let to_iterator ~batch_size cursor =
  (match validate ~batch_size with
  | [] when batch_size > 0 -> ()
  | _ -> invalid_arg "Batch.to_iterator: batch_size must be in [1, 255]");
  (* The fast path must stay closure-free and match-free: one bounds
     compare, one load, one [Some].  A drained sentinel (any packet with
     everything consumed) funnels the slow path into [refill], defined
     once per iterator rather than per call.

     A fresh shell per refill, deliberately NOT one long-lived reused
     shell: a reused shell is promoted to the major heap after a few
     minor collections, and from then on every refill overwrites
     major-heap pointer fields.  Any per-record allocation downstream
     keeps OCaml 5's concurrent marking active, and each such overwrite
     then pays the deletion barrier — measured ~5x the cost of
     bump-allocating a young shell that dies with its batch.  [emit] is
     one closure, reaching the current shell through [current]. *)
  let drained = Packet.create ~capacity:1 ~producer:0 in
  let current = ref drained in
  let pos = ref 0 in
  let len = ref 0 in
  let finished = ref true in
  let emit tuple = Packet.add !current tuple in
  let release () =
    current := drained;
    pos := 0;
    len := 0
  in
  (* One step per refill: a step emits at most [max] records, so it
     cannot overflow the shell.  A step whose records were all filtered
     out steps again; a step of 0 latches the end of the stream. *)
  let rec refill () =
    release ();
    if !finished then None
    else begin
      let packet = Packet.create ~capacity:batch_size ~producer:0 in
      current := packet;
      if cursor.step ~emit ~max:batch_size = 0 then begin
        finished := true;
        release ();
        None
      end
      else
        let n = Packet.length packet in
        if n = 0 then refill ()
        else begin
          pos := 1;
          len := n;
          Some (Packet.get packet 0)
        end
    end
  in
  Iterator.make
    ~open_:(fun () ->
      release ();
      finished := false;
      cursor.reset ())
    ~next:(fun () ->
      let i = !pos in
      if i < !len then begin
        pos := i + 1;
        Some (Packet.get !current i)
      end
      else refill ())
    ~close:(fun () ->
      release ();
      finished := true;
      cursor.stop ())
