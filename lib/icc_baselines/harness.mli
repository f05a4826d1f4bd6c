(** Shared scenario/result shapes for the baseline protocols (PBFT, chained
    HotStuff), mirroring [Icc_core.Runner] so experiments can compare the
    protocols on identical workloads and networks. *)

type scenario = {
  n : int;
  t : int;
  seed : int;
  delay : Icc_core.Runner.delay_spec;
  duration : float;
  block_size : int;  (** Modeled batch payload bytes. *)
  crashed : int list;
  kill_at : (int * float) list;
  timeout : float;  (** View-change / pacemaker timeout. *)
  pipeline_window : int;  (** PBFT: batches in flight. *)
  trace : Icc_sim.Trace.t option;  (** Observe the run; [None] = untraced. *)
  monitor : Icc_sim.Monitor.config option;
      (** Attach the online invariant monitor to the run's bus. *)
  nemesis : Icc_sim.Fault.script option;
      (** Link faults (drop / duplicate / reorder / flap / partition) on
          the baseline's network; crash/recover directives are ignored by
          the baselines — use [crashed] / [kill_at] instead. *)
  adversary : Icc_sim.Adversary.script option;
      (** Byzantine strategies on the baseline's network.  Only statically
          targeted directives apply (the baselines have no protocol-layer
          hooks): share withholding works at the wire via
          {!baseline_classify}; censorship, stealthy delays, straggling and
          crash windows apply as on any network; equivocation directives
          are inert. *)
}

val default_scenario : n:int -> seed:int -> scenario

val baseline_classify : string -> Icc_sim.Adversary.share_class option
(** Maps baseline wire kinds to share classes (PBFT [prepare]/[commit],
    HotStuff [hs-vote], Tendermint [tm-prevote]/[tm-precommit]) so
    withhold directives apply at the network level. *)

type result = {
  metrics : Icc_sim.Metrics.t;
  monitor : Icc_sim.Monitor.t option;
  duration : float;
  blocks_committed : int;  (** Decided by every honest replica. *)
  blocks_per_s : float;
  mean_latency : float;  (** Propose → all honest executed. *)
  safety_ok : bool;
      (** The monitor's verdict: no fatal violation, in particular no
          fork between honest replicas' executed sequences. *)
  outputs : (int * string list) list;
      (** Per honest replica, executed digests in order. *)
}

(** {1 Running a baseline} *)

type tracker
(** One run's driver state: its {!Icc_sim.Transport.env}, honest set and
    commit tracking (a batch counts as decided when every honest replica
    has executed it). *)

val start :
  scenario -> label:string -> rng:Icc_sim.Rng.t -> net_rng:Icc_sim.Rng.t ->
  Icc_sim.Transport.env * tracker
(** Build the run through {!Icc_sim.Transport.env} (delay model, nemesis,
    adversary with {!baseline_classify}, monitor) and announce
    [Run_start].  Crashed, killed and statically corrupt replicas are not
    honest. *)

val note_proposal : tracker -> digest:string -> time:float -> unit

val note_execution :
  tracker -> party:int -> digest:string -> time:float -> unit
(** An honest replica executed [digest]: emits a [Commit] carrying the
    replica, its execution index and the block id (the 12-character
    {!Icc_crypto.Sha256.short_hex} of [digest]'s SHA-256, so distinct
    digests get distinct ids whatever their form), and a [Block_decided]
    with the same id once every honest replica has executed it.
    Executions by replicas outside the honest set are ignored. *)

val finish : tracker -> output:(int -> string list) -> result
(** Announce [Run_end] and build the result; [output id] is honest replica
    [id]'s executed digests in order.  [safety_ok] is the monitor's
    verdict. *)
