(* Discrete-event simulation engine: a clock plus an ordered queue of
   thunks.  Handlers run strictly in (time, insertion seq) order; a handler
   may schedule further events at or after the current time.

   The queue is a binary heap of *runs*.  A run is a FIFO of consecutive
   schedules at one time: a new event joins the most recently opened run
   if that run is still queued and its time is bit-equal, and opens a new
   run otherwise.  A run's events therefore carry consecutive seqs, and
   runs with equal times hold disjoint seq ranges in opening order, so
   ordering runs by (time, first seq) and draining each in FIFO order is
   exactly global (time, seq) order.  Back-to-back same-time schedules,
   such as a broadcast's deliveries, share one run (one heap push, then
   O(1) appends); a WAN delivery with a timestamp of its own costs one
   push and one pop, with no hashing.

   Storage is flat: runs are pooled and addressed by int id, and the heap
   is three parallel arrays (times, first seqs, run ids), so sifting moves
   only unboxed floats and ints and a steady-state schedule allocates
   nothing inside the engine. *)

(* All-float record: its fields are stored unboxed, so ticking the clock
   allocates nothing. *)
type clock = { mutable now : float; mutable last_time : float }

type t = {
  clock : clock;
  (* heap of queued runs, ordered by (time, first seq) *)
  mutable h_time : float array;
  mutable h_seq : int array;
  mutable h_run : int array;
  mutable h_len : int;
  (* run pool, indexed by run id *)
  mutable r_fns : (unit -> unit) array array; (* FIFO of thunks *)
  mutable r_head : int array; (* next index to dispatch *)
  mutable r_len : int array; (* filled entries *)
  mutable free : int array; (* stack of unused run ids *)
  mutable n_free : int;
  mutable last : int; (* last-opened run while it is queued, else -1 *)
  mutable seq : int;
  mutable pending : int;
  mutable processed : int;
  mutable observer : (time:float -> seq:int -> unit) option;
      (* instrumentation hook, called before each dispatched handler *)
}

let no_op () = ()

let create () =
  {
    clock = { now = 0.; last_time = 0. };
    h_time = [||];
    h_seq = [||];
    h_run = [||];
    h_len = 0;
    r_fns = [||];
    r_head = [||];
    r_len = [||];
    free = [||];
    n_free = 0;
    last = -1;
    seq = 0;
    processed = 0;
    pending = 0;
    observer = None;
  }

let set_observer t f = t.observer <- Some f

let now t = t.clock.now
let pending t = t.pending
let processed t = t.processed

let grow a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A run id off the free stack.  When every id is queued, the pool doubles,
   and the heap with it: it holds one entry per queued run. *)
let take_run t =
  if t.n_free = 0 then begin
    let id = Array.length t.r_fns in
    let cap = max 16 (2 * id) in
    t.r_fns <- grow t.r_fns cap [||];
    for i = id to cap - 1 do
      t.r_fns.(i) <- Array.make 4 no_op
    done;
    t.r_head <- grow t.r_head cap 0;
    t.r_len <- grow t.r_len cap 0;
    t.h_time <- grow t.h_time cap 0.;
    t.h_seq <- grow t.h_seq cap 0;
    t.h_run <- grow t.h_run cap 0;
    t.free <- Array.init cap (fun i -> cap - 1 - i);
    t.n_free <- cap - id
  end;
  t.n_free <- t.n_free - 1;
  t.free.(t.n_free)

(* Heap order; the engine never queues a NaN time, so "neither is
   smaller" is equality. *)
let[@inline] before (ta : float) (sa : int) (tb : float) (sb : int) =
  ta < tb || ((not (tb < ta)) && sa < sb)

let[@inline] push t ~time ~seq run =
  let i = ref t.h_len in
  t.h_len <- t.h_len + 1;
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    before time seq t.h_time.(p) t.h_seq.(p)
  do
    let p = (!i - 1) / 2 in
    t.h_time.(!i) <- t.h_time.(p);
    t.h_seq.(!i) <- t.h_seq.(p);
    t.h_run.(!i) <- t.h_run.(p);
    i := p
  done;
  t.h_time.(!i) <- time;
  t.h_seq.(!i) <- seq;
  t.h_run.(!i) <- run

(* Remove the drained run at the root and return its id to the pool. *)
let pop t =
  let run = t.h_run.(0) in
  let n = t.h_len - 1 in
  t.h_len <- n;
  if n > 0 then begin
    (* sift the last entry down from the root, moving the hole *)
    let time = t.h_time.(n) and seq = t.h_seq.(n) and r = t.h_run.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c =
          if l + 1 < n
             && before t.h_time.(l + 1) t.h_seq.(l + 1) t.h_time.(l)
                  t.h_seq.(l)
          then l + 1
          else l
        in
        if before t.h_time.(c) t.h_seq.(c) time seq then begin
          t.h_time.(!i) <- t.h_time.(c);
          t.h_seq.(!i) <- t.h_seq.(c);
          t.h_run.(!i) <- t.h_run.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.h_time.(!i) <- time;
    t.h_seq.(!i) <- seq;
    t.h_run.(!i) <- r
  end;
  t.r_head.(run) <- 0;
  t.r_len.(run) <- 0;
  t.free.(t.n_free) <- run;
  t.n_free <- t.n_free + 1;
  if t.last = run then t.last <- -1

let append t run action =
  let fns = t.r_fns.(run) and len = t.r_len.(run) in
  let fns =
    if len < Array.length fns then fns
    else begin
      let fns = grow fns (2 * len) no_op in
      t.r_fns.(run) <- fns;
      fns
    end
  in
  fns.(len) <- action;
  t.r_len.(run) <- len + 1

(* Inlined into both entry points, so [schedule]'s computed time is never
   boxed. *)
let[@inline] enqueue t time action =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: time is NaN";
  if time < t.clock.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %.6f is in the past (now %.6f)"
         time t.clock.now);
  (* +. 0. collapses -0 onto +0, so equal times are bit-equal. *)
  let time = time +. 0. in
  if t.last >= 0 && Float.equal t.clock.last_time time then
    append t t.last action
  else begin
    let run = take_run t in
    push t ~time ~seq:t.seq run;
    t.last <- run;
    t.clock.last_time <- time;
    append t run action
  end;
  t.seq <- t.seq + 1;
  t.pending <- t.pending + 1

let schedule_at t ~time action = enqueue t time action

let schedule t ~delay action =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  enqueue t (t.clock.now +. delay) action

exception Stopped

let stop _t = raise Stopped

let run ?(until = infinity) ?(max_events = max_int) t =
  try
    let continue = ref true in
    while !continue do
      if t.processed >= max_events || t.h_len = 0 then continue := false
      else begin
        let run = t.h_run.(0) in
        let i = t.r_head.(run) in
        if i >= t.r_len.(run) then
          (* Drained: only the running run can be empty, and it stays
             queued (open to same-time appends) until the clock moves on. *)
          pop t
        else begin
          let time = t.h_time.(0) in
          if time > until then begin
            t.clock.now <- until;
            continue := false
          end
          else begin
            t.r_head.(run) <- i + 1;
            let fns = t.r_fns.(run) in
            let fn = fns.(i) in
            fns.(i) <- no_op;
            (* release the closure for GC *)
            t.clock.now <- time;
            t.processed <- t.processed + 1;
            t.pending <- t.pending - 1;
            (match t.observer with
            | Some f -> f ~time ~seq:(t.h_seq.(0) + i)
            | None -> ());
            Icc_obs.Profile.span "engine.dispatch" fn
          end
        end
      end
    done
  with Stopped -> ()
