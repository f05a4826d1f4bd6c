(* Shared scenario/result shapes for the baseline protocols (PBFT, chained
   HotStuff), mirroring Icc_core.Runner so experiment code can compare the
   protocols on identical workloads and networks. *)

type scenario = {
  n : int;
  t : int;
  seed : int;
  delay : Icc_core.Runner.delay_spec;
  duration : float;
  block_size : int; (* modeled batch payload bytes *)
  crashed : int list;
  kill_at : (int * float) list;
  timeout : float; (* view-change / pacemaker timeout *)
  pipeline_window : int; (* PBFT: batches in flight *)
  trace : Icc_sim.Trace.t option; (* observe the run; None = untraced *)
  monitor : Icc_sim.Monitor.config option; (* online invariant monitor *)
  nemesis : Icc_sim.Fault.script option; (* link faults on the baseline's net *)
  adversary : Icc_sim.Adversary.script option; (* Byzantine strategies *)
}

let default_scenario ~n ~seed =
  {
    n;
    t = Icc_crypto.Keygen.max_corrupt ~n;
    seed;
    delay = Icc_core.Runner.Fixed_delay 0.05;
    duration = 30.;
    block_size = 512;
    crashed = [];
    kill_at = [];
    timeout = 1.0;
    pipeline_window = 1;
    trace = None;
    monitor = None;
    nemesis = None;
    adversary = None;
  }

(* Wire-kind classifier enabling network-level share withholding for the
   baselines: they have no protocol-layer adversary hooks, so a corrupt
   replica's "shares" (votes) are suppressed as they hit the network.  The
   kind strings are disjoint across the three baselines, so one classifier
   serves all.  Equivocation directives are inert here (the baselines'
   proposers are not scriptable); censor/delay/straggle/crash apply as on
   any network. *)
let baseline_classify kind =
  match kind with
  | "prepare" | "hs-vote" | "tm-prevote" -> Some Icc_sim.Adversary.Notar
  | "commit" | "tm-precommit" -> Some Icc_sim.Adversary.Final
  | _ -> None

type result = {
  metrics : Icc_sim.Metrics.t;
  monitor : Icc_sim.Monitor.t option;
  duration : float;
  blocks_committed : int; (* decided by every honest replica *)
  blocks_per_s : float;
  mean_latency : float; (* propose -> all honest executed *)
  safety_ok : bool; (* the monitor's verdict *)
  outputs : (int * string list) list; (* replica, executed digests in order *)
}

(* Commit tracker shared by the baselines: a batch counts as decided when
   every honest replica has executed it. *)
type tracker = {
  env : Icc_sim.Transport.env;
  monitor : Icc_sim.Monitor.t option; (* Some only if the scenario set one *)
  label : string;
  honest : int list;
  n_honest : int;
  is_honest : bool array; (* by replica id *)
  executed : int array; (* by replica id: batches executed so far *)
  counts : (string, int) Hashtbl.t;
  mutable decided : int;
  mutable latencies : float list;
  propose_times : (string, float) Hashtbl.t;
}

(* The run driver for a baseline: engine, bus, metrics, delay model,
   nemesis, adversary and monitor from {!Icc_sim.Transport.env}.  The
   baselines honour only the nemesis's link faults (drop / duplicate /
   reorder / flap / partition); its crash and recover directives are
   ignored — use [crashed] / [kill_at] for baseline crash faults.  Only
   statically targeted adversary directives apply: the baselines never call
   note_round, so adaptive (Any-targeted) directives stay dormant.
   Crashed, killed and statically corrupt replicas are not honest. *)
let start scenario ~label ~rng ~net_rng =
  let env =
    Icc_sim.Transport.env ?trace:scenario.trace ?monitor:scenario.monitor
      ?nemesis:scenario.nemesis ?adversary:scenario.adversary
      ~classify:baseline_classify ~rng ~net_rng ~delay:scenario.delay
      ~n:scenario.n ()
  in
  Icc_sim.Trace.emit env.Icc_sim.Transport.trace ~time:0.
    (Icc_sim.Trace.Run_start { n = scenario.n; label });
  let corrupt =
    match scenario.adversary with
    | None -> []
    | Some script -> Icc_sim.Adversary.static_corrupt script
  in
  let honest =
    List.init scenario.n (fun i -> i + 1)
    |> List.filter (fun id -> not (List.mem id scenario.crashed))
    |> List.filter (fun id -> not (List.mem_assoc id scenario.kill_at))
    |> List.filter (fun id -> not (List.mem id corrupt))
  in
  let is_honest = Array.make (scenario.n + 1) false in
  List.iter (fun id -> is_honest.(id) <- true) honest;
  ( env,
    {
      env;
      monitor =
        Option.map (fun _ -> env.Icc_sim.Transport.monitor) scenario.monitor;
      label;
      honest;
      n_honest = List.length honest;
      is_honest;
      executed = Array.make (scenario.n + 1) 0;
      counts = Hashtbl.create 256;
      decided = 0;
      latencies = [];
      propose_times = Hashtbl.create 256;
    } )

let note_proposal tr ~digest ~time =
  if not (Hashtbl.mem tr.propose_times digest) then
    Hashtbl.add tr.propose_times digest time

(* An honest replica's execution is its commit: announced on the bus with
   the replica's execution index as the round, so the monitor's fork and
   commit-regression checks judge the baselines as they judge ICC.  The
   block id is the short hex of the digest's SHA-256: the baselines' digests
   differ in form (Tendermint's are plain text sharing long prefixes), and a
   prefix of the digest itself could make two distinct blocks look alike. *)
let note_execution tr ~party ~digest ~time =
  if tr.is_honest.(party) then begin
    let trace = tr.env.Icc_sim.Transport.trace in
    let block =
      Icc_crypto.Sha256.short_hex (Icc_crypto.Sha256.digest_string digest)
    in
    let index = tr.executed.(party) + 1 in
    tr.executed.(party) <- index;
    Icc_sim.Trace.emit trace ~time
      (Icc_sim.Trace.Commit { party; round = index; block });
    let c = 1 + Option.value ~default:0 (Hashtbl.find_opt tr.counts digest) in
    Hashtbl.replace tr.counts digest c;
    if c = tr.n_honest then begin
      tr.decided <- tr.decided + 1;
      Icc_sim.Trace.emit trace ~time
        (Icc_sim.Trace.Block_decided { round = tr.decided; block });
      match Hashtbl.find_opt tr.propose_times digest with
      | Some t0 -> tr.latencies <- (time -. t0) :: tr.latencies
      | None -> ()
    end
  end

let finish tr ~output =
  let env = tr.env in
  let elapsed = Icc_sim.Engine.now env.Icc_sim.Transport.engine in
  Icc_sim.Trace.emit env.Icc_sim.Transport.trace ~time:elapsed
    (Icc_sim.Trace.Run_end { label = tr.label });
  {
    metrics = env.Icc_sim.Transport.metrics;
    monitor = tr.monitor;
    duration = elapsed;
    blocks_committed = tr.decided;
    blocks_per_s = float_of_int tr.decided /. elapsed;
    mean_latency = Icc_sim.Metrics.mean tr.latencies;
    safety_ok = Icc_sim.Monitor.ok env.Icc_sim.Transport.monitor;
    outputs = List.map (fun id -> (id, output id)) tr.honest;
  }
