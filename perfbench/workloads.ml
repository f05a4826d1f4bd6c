(* The benchmark's workloads: each turns a seed into one scenario and names
   the public entry point that runs it.  Everything else about a scenario is
   the shipped default of [Runner.default_scenario]. *)

type t = {
  name : string;
  rounds : int;  (** The run stops once every honest party commits this. *)
  scenario : seed:int -> Icc_core.Runner.scenario;
  run : Icc_core.Runner.scenario -> Icc_core.Runner.result;
      (** The public entry point, as a user calls it. *)
  transport : unit -> Icc_core.Runner.transport;
      (** The same protocol's dissemination layer, for the traced run to
          wrap; [Runner.run] with it is what [run] does. *)
}

(* A run ends when every honest party has committed [rounds]; the
   simulated duration is only a cap. *)
let base ~n ~seed ~rounds =
  {
    (Icc_core.Runner.default_scenario ~n ~seed) with
    Icc_core.Runner.duration = 1e4;
    max_rounds = Some rounds;
  }

(* ICC0, every party checks every share: verification dominates. *)
let icc0_n64 =
  let rounds = 5 in
  {
    name = "icc0-n64";
    rounds;
    scenario =
      (fun ~seed ->
        {
          (base ~n:64 ~seed ~rounds) with
          Icc_core.Runner.delay = Icc_core.Runner.Fixed_delay 0.02;
        });
    run = Icc_core.Runner.run;
    transport = (fun () -> Icc_core.Runner.direct_transport);
  }

(* ICC2 under client load: ~1 KiB commands ride beside the share traffic
   through the erasure-coded reliable broadcast. *)
let icc2_n16_load =
  let rounds = 15 in
  {
    name = "icc2-n16-load";
    rounds;
    scenario =
      (fun ~seed ->
        {
          (base ~n:16 ~seed ~rounds) with
          Icc_core.Runner.delay = Icc_core.Runner.Fixed_delay 0.02;
          workload =
            Icc_core.Runner.Load { rate_per_s = 2000.; cmd_size = 1024 };
        });
    run = Icc_rbc.Icc2.run;
    transport = Icc_rbc.Icc2.transport;
  }

(* ICC1 over gossip on WAN delays, with a lossy window (which switches the
   resync sub-layer on), one noisy equivocator and the online monitor.  The
   equivocator is drawn from the seed but is never party 1, whose inbound
   stream the traced run captures. *)
let icc1_n32_wan_faults =
  let rounds = 15 in
  let n = 32 in
  {
    name = "icc1-n32-wan-faults";
    rounds;
    scenario =
      (fun ~seed ->
        {
          (base ~n ~seed ~rounds) with
          Icc_core.Runner.delay =
            Icc_core.Runner.Wan { rtt_lo = 0.006; rtt_hi = 0.110 };
          nemesis = Some [ Icc_sim.Fault.drop ~from_:0.3 ~until:1.5 0.05 ];
          adversary =
            Some
              [
                Icc_sim.Adversary.equivocate ~noisy:true
                  (2 + (abs seed mod (n - 1)));
              ];
          monitor = Some (Icc_sim.Monitor.default_config ~delta:1.0 ());
        });
    run = Icc_gossip.Icc1.run;
    transport = Icc_gossip.Icc1.transport;
  }

let all = [ icc0_n64; icc2_n16_load; icc1_n32_wan_faults ]
let find name = List.find_opt (fun w -> String.equal w.name name) all
