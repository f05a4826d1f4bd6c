(* Self-time accounting for the traced run, kept entirely in the benchmark:
   a transport wrapper opens a span around every [tr_deliver] (a party
   processing one message) and every [tx_broadcast] / [tx_unicast] (the
   dissemination layer sending one), and the time between spans is charged
   to the frame below.  Spans nest — a delivery sends, and ICC1's gossip
   and ICC2's reliable broadcast hand a proposer its own message from
   inside the send — so each span's self time excludes the spans it opens,
   and the three kinds partition the run's wall-clock exactly.  The
   wrapper also keeps party 1's inbound stream and the committee keys for
   the micro rows. *)

type kind = Other | Deliver | Send

let index = function Other -> 0 | Deliver -> 1 | Send -> 2

type t = {
  self_s : float array;  (** Per kind, seconds. *)
  mutable deliveries : int;
  mutable sends : int;
  mutable deliver_samples : float array;  (** Per-delivery self time, s. *)
  mutable n_samples : int;
  (* The open frames: kind and self time so far, [depth] is the top. *)
  frame_kind : kind array;
  frame_self : float array;
  mutable depth : int;
  mutable last : float;
  (* Party 1's inbound stream, newest first. *)
  mutable inbound : Icc_core.Message.t list;
  mutable engine : Icc_sim.Engine.t option;
  mutable system : Icc_crypto.Keygen.system option;
  mutable keys : Icc_crypto.Keygen.party_keys array;
  (* Wall-clock of each decided round, newest first. *)
  mutable decided_at : float list;
}

let max_depth = 4096

let create () =
  {
    self_s = Array.make 3 0.;
    deliveries = 0;
    sends = 0;
    deliver_samples = Array.make 4096 0.;
    n_samples = 0;
    frame_kind = Array.make max_depth Other;
    frame_self = Array.make max_depth 0.;
    depth = 0;
    last = 0.;
    inbound = [];
    engine = None;
    system = None;
    keys = [||];
    decided_at = [];
  }

let now = Unix.gettimeofday

let charge s t =
  s.frame_self.(s.depth) <- s.frame_self.(s.depth) +. (t -. s.last);
  s.last <- t

let start s =
  s.depth <- 0;
  s.frame_kind.(0) <- Other;
  s.frame_self.(0) <- 0.;
  s.last <- now ()

let enter s kind =
  charge s (now ());
  s.depth <- s.depth + 1;
  s.frame_kind.(s.depth) <- kind;
  s.frame_self.(s.depth) <- 0.

let push_sample s x =
  if s.n_samples = Array.length s.deliver_samples then begin
    let bigger = Array.make (2 * s.n_samples) 0. in
    Array.blit s.deliver_samples 0 bigger 0 s.n_samples;
    s.deliver_samples <- bigger
  end;
  s.deliver_samples.(s.n_samples) <- x;
  s.n_samples <- s.n_samples + 1

let leave s =
  charge s (now ());
  let kind = s.frame_kind.(s.depth) and self = s.frame_self.(s.depth) in
  let i = index kind in
  s.self_s.(i) <- s.self_s.(i) +. self;
  if kind = Deliver then push_sample s self;
  s.depth <- s.depth - 1

(* Close the base frame once the run has returned. *)
let finish s =
  charge s (now ());
  s.self_s.(0) <- s.self_s.(0) +. s.frame_self.(0)

let span s kind f =
  enter s kind;
  match f () with
  | () -> leave s
  | exception e ->
      (* [Engine.stop] ends the run by raising through the handlers. *)
      leave s;
      raise e

let wrap s (inner : Icc_core.Runner.transport) : Icc_core.Runner.transport =
 fun ctx ->
  s.engine <- Some ctx.Icc_core.Runner.tr_engine;
  s.system <- Some ctx.Icc_core.Runner.tr_system;
  s.keys <- ctx.Icc_core.Runner.tr_keys;
  let deliver = ctx.Icc_core.Runner.tr_deliver in
  let tr_deliver ~dst msg =
    s.deliveries <- s.deliveries + 1;
    if dst = 1 then s.inbound <- msg :: s.inbound;
    span s Deliver (fun () -> deliver ~dst msg)
  in
  let impl = inner { ctx with Icc_core.Runner.tr_deliver } in
  {
    Icc_core.Runner.tx_broadcast =
      (fun ~src msg ->
        s.sends <- s.sends + 1;
        span s Send (fun () -> impl.Icc_core.Runner.tx_broadcast ~src msg));
    tx_unicast =
      (fun ~src ~dst msg ->
        s.sends <- s.sends + 1;
        span s Send (fun () -> impl.Icc_core.Runner.tx_unicast ~src ~dst msg));
  }

(* A core-level sink on the run's bus stamping each decided round with the
   wall-clock; core events are emitted on every run, so this adds a call,
   not an event. *)
let decided_sink s trace =
  Icc_sim.Trace.subscribe ~all:false trace (fun ~time:_ ev ->
      match ev with
      | Icc_sim.Trace.Block_decided _ -> s.decided_at <- now () :: s.decided_at
      | _ -> ())

let deliver_s s = s.self_s.(index Deliver)
let send_s s = s.self_s.(index Send)
let other_s s = s.self_s.(index Other)
let deliver_samples s = Array.sub s.deliver_samples 0 s.n_samples
