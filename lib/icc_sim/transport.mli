(** The shared run driver: the one place that builds a run's engine,
    {!Trace} bus, {!Metrics} consumer, delay model, {!Fault} nemesis and
    Byzantine {!Adversary}, and attaches its safety oracle, the online
    {!Monitor}.  ICC0, ICC1, ICC2 and the baselines all construct their
    runs through {!env}, so every protocol emits the same event stream and
    is judged by the same monitor. *)

type delay_spec =
  | Fixed_delay of float
  | Uniform_delay of float * float
  | Wan of { rtt_lo : float; rtt_hi : float }
      (** Per-pair one-way delays from RTT ~ U[lo, hi] — the paper's
          observed 6–110 ms inter-datacenter range. *)

type env = {
  engine : Engine.t;
  trace : Trace.t;
  metrics : Metrics.t;
  monitor : Monitor.t;
      (** The run's safety oracle: the scenario's monitor, or a silent one
          that announces nothing and never aborts. *)
  n : int;
  delay_model : Network.delay_model;
  async_until : float;
  fault : Fault.t option;
  adversary : Adversary.t option;
}

val env :
  ?trace:Trace.t ->
  ?monitor:Monitor.config ->
  ?nemesis:Fault.script ->
  ?adversary:Adversary.script ->
  ?classify:(string -> Adversary.share_class option) ->
  ?async_until:float ->
  rng:Rng.t ->
  net_rng:Rng.t ->
  delay:delay_spec ->
  n:int ->
  unit ->
  env
(** Fresh engine and metrics for one run on [trace] (else a private bus).
    If the bus already has a detail subscriber, engine dispatch is
    observed onto it.  The monitor subscribes next: with [monitor] it is
    {!Monitor.attach}ed (announcing on the bus, aborting if configured),
    otherwise a silent one is.  [delay] is sampled from [net_rng]; the
    nemesis and then the adversary (with its wire [classify]er) each split
    [rng], only when their script is present and non-empty. *)

val network_of : env -> 'msg Network.t
(** An instrumented network on the environment's engine and bus with its
    delay model.  [async_until > 0] installs the adversarial hold
    ({!Network.hold_all_until}) before any message is sent; the nemesis
    ({!Network.set_fault}) and the adversary ({!Network.set_adversary}),
    when present, are interposed.  Direct, gossip and RBC transports all
    build their networks here. *)
