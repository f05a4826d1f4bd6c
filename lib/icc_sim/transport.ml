(* The shared run driver.

   Every run — ICC0/1/2 through Icc_core.Runner, and each baseline through
   Icc_baselines.Harness — goes through [env]: it builds the engine, the
   trace bus with its metrics consumer, the delay model, the nemesis and
   the Byzantine adversary from the scenario fields every protocol has,
   and attaches the run's one safety oracle, the online {!Monitor}.
   Networks built with [network_of] inherit all of it, so every protocol
   runs on the same observable substrate and is judged the same way. *)

type delay_spec =
  | Fixed_delay of float
  | Uniform_delay of float * float
  | Wan of { rtt_lo : float; rtt_hi : float } (* paper: RTT 6–110 ms *)

type env = {
  engine : Engine.t;
  trace : Trace.t;
  metrics : Metrics.t;
  monitor : Monitor.t;
  n : int;
  delay_model : Network.delay_model;
  async_until : float;
  fault : Fault.t option;
  adversary : Adversary.t option;
}

let delay_model net_rng ~n : delay_spec -> Network.delay_model = function
  | Fixed_delay d -> Fixed d
  | Uniform_delay (lo, hi) -> Uniform { rng = net_rng; lo; hi }
  | Wan { rtt_lo; rtt_hi } ->
      Matrix (Network.wan_matrix net_rng ~n ~rtt_lo ~rtt_hi)

let env ?trace ?monitor ?nemesis ?adversary ?classify ?(async_until = 0.)
    ~rng ~net_rng ~delay ~n () =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  let metrics = Metrics.create n in
  Metrics.attach metrics trace;
  let engine = Engine.create () in
  (* Engine dispatch is the noisiest layer; only observe it when someone
     outside the run is listening for detail events.  The monitor below
     subscribes after this check, so it does not switch dispatch on. *)
  if Trace.detailed trace then
    Engine.set_observer engine (fun ~time ~seq ->
        Trace.emit trace ~time (Trace.Engine_dispatch { seq }));
  (* The monitor subscribes after any external sink (e.g. the JSONL dump),
     so its Monitor_* announcements land right after the offending line.
     Without a configured one, a silent monitor still judges the run: it
     announces nothing and never aborts. *)
  let mon =
    match monitor with
    | Some config -> Monitor.attach ~config trace
    | None ->
        let m = Monitor.create (Monitor.default_config ~delta:1.0 ()) in
        Trace.subscribe trace (Monitor.observe m);
        m
  in
  let delay_model = delay_model net_rng ~n delay in
  (* The fault and adversary layers each own a private RNG stream, split
     only when a script is present, so scenarios without one keep their
     exact historical streams (pinned by the golden-trace test). *)
  let fault =
    Option.map
      (fun script -> Fault.create ~rng:(Rng.split rng) ~trace script)
      nemesis
  in
  let adversary =
    match adversary with
    | None | Some [] -> None
    | Some script ->
        Some (Adversary.create ~rng:(Rng.split rng) ~trace ~n ?classify script)
  in
  {
    engine;
    trace;
    metrics;
    monitor = mon;
    n;
    delay_model;
    async_until;
    fault;
    adversary;
  }

let network_of e =
  let net =
    Network.create e.engine ~n:e.n ~trace:e.trace ~delay_model:e.delay_model
  in
  if e.async_until > 0. then Network.hold_all_until net e.async_until;
  Option.iter (Network.set_fault net) e.fault;
  Option.iter (Network.set_adversary net) e.adversary;
  net
