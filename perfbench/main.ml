(* The repo benchmark: runs one workload at one seed in this process and
   prints its metrics, the last line of standard output being one JSON
   object {"correct", "attempted", "failed", "metrics"}.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 times untraced runs through the public entry point for S
   seconds and reports the end-to-end metrics.  --trace 1 alternates
   untraced runs with traced runs through a wrapped transport for S
   seconds, then times layer functions on what a traced run captured, and
   reports the per-layer metrics.  Both check every run's outputs.  Run it
   through run.py, which builds it first. *)

let now = Unix.gettimeofday

(* --- arguments ------------------------------------------------------- *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
      workloads: "
    ^ String.concat " " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let args =
  let rec go acc = function
    | flag :: value :: rest
      when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list Sys.argv))

let arg name parse =
  match List.assoc_opt name args with
  | None -> usage ()
  | Some v -> ( match parse v with Some x -> x | None -> usage ())

(* --- run checks ------------------------------------------------------ *)

(* What a run did, as opposed to how fast: equal at one seed on every run,
   traced or not. *)
type behaviour = {
  rounds : int;
  msgs : int;
  bytes : int;
  max_party_bytes : int;
  latency : float;
}

let behaviour (r : Icc_core.Runner.result) =
  let m = r.Icc_core.Runner.metrics in
  {
    rounds = r.Icc_core.Runner.rounds_decided;
    msgs = Icc_sim.Metrics.total_msgs m;
    bytes = Icc_sim.Metrics.total_bytes m;
    max_party_bytes = Icc_sim.Metrics.max_bytes_per_party m;
    latency = r.Icc_core.Runner.mean_latency;
  }

let same_behaviour a b =
  a.rounds = b.rounds && a.msgs = b.msgs && a.bytes = b.bytes
  && a.max_party_bytes = b.max_party_bytes
  && Float.equal a.latency b.latency

(* The failed checks of one run: safety, P1, the target rounds decided by
   every honest party on identical chains, and a clean monitor verdict. *)
let check_run (w : Workloads.t) (r : Icc_core.Runner.result) =
  let fails = ref [] in
  let fail s = fails := s :: !fails in
  if not r.Icc_core.Runner.safety_ok then fail "safety";
  if not r.Icc_core.Runner.p1_ok then fail "P1";
  if r.Icc_core.Runner.rounds_decided < w.Workloads.rounds then
    fail
      (Printf.sprintf "decided %d of %d rounds"
         r.Icc_core.Runner.rounds_decided w.Workloads.rounds);
  let prefix (_, chain) =
    List.filter_map
      (fun b ->
        if b.Icc_core.Block.round <= w.Workloads.rounds then
          Some (Icc_core.Block.hash b)
        else None)
      chain
  in
  (match r.Icc_core.Runner.outputs with
  | [] -> fail "no honest outputs"
  | first :: rest ->
      let p = prefix first in
      if List.length p <> w.Workloads.rounds then fail "honest chain has gaps";
      if
        not
          (List.for_all
             (fun o -> List.equal Icc_crypto.Sha256.equal p (prefix o))
             rest)
      then fail "honest chains differ");
  (match r.Icc_core.Runner.monitor with
  | None -> ()
  | Some m ->
      if Icc_sim.Monitor.violations m <> [] || Icc_sim.Monitor.stalls m <> [] then
        fail (Icc_sim.Monitor.summary m));
  List.rev !fails

let report_failure what fails =
  Printf.eprintf "FAILED %s: %s\n%!" what (String.concat "; " fails)

(* --- measurement ----------------------------------------------------- *)

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

type run = {
  wall : float;
  result : Icc_core.Runner.result;
  counters : (string * int) list;
  alloc_mb : float;
  minor : int;
  major : int;
}

(* One run with the GC settled first, so runs start alike. *)
let timed run_fn sc =
  Gc.compact ();
  Icc_crypto.Counters.reset ();
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let result = run_fn sc in
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let words (g : Gc.stat) =
    g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words
  in
  {
    wall;
    result;
    counters = Icc_crypto.Counters.snapshot ();
    alloc_mb = mb_of_words (words g1 -. words g0);
    minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reference : behaviour option;
}

(* Run, check, and compare with the first good run at this seed; [None]
   when the run raised or failed a check. *)
let attempt tally w what run_fn sc =
  tally.attempted <- tally.attempted + 1;
  let failed fails =
    report_failure what fails;
    tally.failed <- tally.failed + 1;
    None
  in
  match timed run_fn sc with
  | exception e -> failed [ Printexc.to_string e ]
  | run -> (
      let b = behaviour run.result in
      let differs =
        match tally.reference with
        | None ->
            tally.reference <- Some b;
            []
        | Some b0 ->
            if same_behaviour b0 b then []
            else [ "behaviour differs from the first run at this seed" ]
      in
      match check_run w run.result @ differs with
      | [] -> Some run
      | fails -> failed fails)

(* Key generation for the workload's committee, exactly as [Runner.run]
   derives it from the scenario seed. *)
let keygen (sc : Icc_core.Runner.scenario) _ =
  let rng = Icc_sim.Rng.create sc.Icc_core.Runner.seed in
  let key_rng = Icc_sim.Rng.split rng in
  Icc_crypto.Keygen.generate ~n:sc.Icc_core.Runner.n
    ~t:sc.Icc_core.Runner.t_corrupt (fun () -> Icc_sim.Rng.bits61 key_rng)

let min_runs = 3
let max_runs = 200

(* --trace 0: untraced runs of the public entry point for [seconds]. *)
let end_to_end tally (w : Workloads.t) ~seed ~seconds =
  let sc = w.Workloads.scenario ~seed in
  let runs = ref [] in
  let peak_heap_mb = ref nan in
  (* Set-up is timed in batches of at least 10 ms between the runs, so its
     samples spread over the whole measurement like the runs' do. *)
  let setup_m = Micro.batch_size ~min_batch:0.01 (keygen sc) in
  let setup = ref [] in
  let t_start = now () in
  while
    tally.attempted < min_runs
    || (now () -. t_start < seconds && tally.attempted < max_runs)
  do
    let first = tally.attempted = 0 in
    let r = attempt tally w "run" w.Workloads.run sc in
    (* The major heap only grows within a process, so its peak is read
       after the first run, before later runs can add fragmentation. *)
    if first then
      peak_heap_mb :=
        mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words);
    Option.iter
      (fun r ->
        let msgs = Icc_sim.Metrics.total_msgs r.result.Icc_core.Runner.metrics in
        runs := (r.wall, r.wall *. 1e6 /. float_of_int msgs) :: !runs)
      r;
    setup := Micro.time_batches (keygen sc) ~m:setup_m ~batches:4 @ !setup
  done;
  let walls = List.map fst !runs and per_msg = List.map snd !runs in
  Printf.printf "%s seed %d: %d runs in %.1f s, wall_s %s\n" w.Workloads.name
    seed tally.attempted (now () -. t_start)
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") walls));
  [
    ("wall_s", Stats.median walls, "s");
    ("us_per_msg", Stats.median per_msg, "us");
    ("setup_s", Stats.median !setup, "s");
    ("peak_heap_mb", !peak_heap_mb, "MB");
  ]

(* What one traced run measured, small enough to keep every run's. *)
type layer_run = {
  l_wall : float;
  l_counters : (string * int) list;
  deliver : float;
  send : float;
  other : float;  (** Self time outside every span, measured. *)
  deliveries : int;
  sends : int;
  events : int;
  deliver_us : float array;  (** Per-delivery self time, ascending. *)
  gaps_ms : float list;  (** Wall-clock between successive decided rounds *)
}

(* Inputs the micro rows replay: the committee and party 1's inbound
   stream, identical on every run at one seed. *)
type captured = {
  system : Icc_crypto.Keygen.system;
  keys : Icc_crypto.Keygen.party_keys array;
  stream : Icc_core.Message.t array;
}

(* A traced run: the protocol's own transport wrapped in the benchmark's
   spans, and a core-level sink stamping decided rounds. *)
let traced_run tally (w : Workloads.t) sc =
  let spans = Spans.create () in
  let bus = Icc_sim.Trace.create () in
  Spans.decided_sink spans bus;
  let sc =
    {
      sc with
      Icc_core.Runner.transport =
        Some (Spans.wrap spans (w.Workloads.transport ()));
      trace = Some bus;
    }
  in
  let run_fn sc =
    Spans.start spans;
    let r = Icc_core.Runner.run sc in
    Spans.finish spans;
    r
  in
  Option.map
    (fun run ->
      let decided = Array.of_list (List.rev spans.Spans.decided_at) in
      ( {
          l_wall = run.wall;
          l_counters = run.counters;
          deliver = Spans.deliver_s spans;
          send = Spans.send_s spans;
          other = Spans.other_s spans;
          deliveries = spans.Spans.deliveries;
          sends = spans.Spans.sends;
          events = Icc_sim.Engine.processed (Option.get spans.Spans.engine);
          deliver_us =
            Stats.sorted_array
              (Array.map (fun s -> s *. 1e6) (Spans.deliver_samples spans));
          gaps_ms =
            List.init (max 0 (Array.length decided - 1)) (fun i ->
                (decided.(i + 1) -. decided.(i)) *. 1e3);
        },
        {
          system = Option.get spans.Spans.system;
          keys = spans.Spans.keys;
          stream = Array.of_list (List.rev spans.Spans.inbound);
        } ))
    (attempt tally w "traced run" run_fn sc)

let counter name counters =
  Option.value ~default:0 (List.assoc_opt name counters)

(* --trace 1: untraced and traced runs alternate at the same seed for
   [seconds], so both see the same machine; then the micro rows run on
   what the first traced run captured. *)
let per_layer tally (w : Workloads.t) ~seed ~seconds =
  let sc = w.Workloads.scenario ~seed in
  let untraced_walls = ref [] and last_untraced = ref None in
  let layer_runs = ref [] and captured = ref None in
  let t_start = now () and pairs = ref 0 in
  while
    !pairs < min_runs || (now () -. t_start < seconds && !pairs < max_runs)
  do
    incr pairs;
    Option.iter
      (fun r ->
        untraced_walls := r.wall :: !untraced_walls;
        last_untraced := Some r)
      (attempt tally w "untraced run" w.Workloads.run sc);
    Option.iter
      (fun (l, c) ->
        layer_runs := l :: !layer_runs;
        if Option.is_none !captured then captured := Some c)
      (traced_run tally w sc)
  done;
  match (!last_untraced, !captured) with
  | None, _ | _, None -> []
  | Some u, Some captured ->
      let fail what fails =
        report_failure what fails;
        tally.failed <- tally.failed + 1
      in
      (* Behaviour was already compared run by run; the crypto work must
         match too, or the wrapper changed what the run did.  The last
         untraced run is the reference: the first one in a process also
         builds the fixed-base tables. *)
      tally.attempted <- tally.attempted + 1;
      let identity_ok =
        List.for_all (fun l -> l.l_counters = u.counters) !layer_runs
      in
      if not identity_ok then fail "identity" [ "crypto counts differ" ];
      let untraced_wall = Stats.median !untraced_walls in
      let traced_wall =
        Stats.median (List.map (fun l -> l.l_wall) !layer_runs)
      in
      (* Layer figures come from the traced run nearest the median wall. *)
      let l =
        List.fold_left
          (fun best cand ->
            let off l = Float.abs (l.l_wall -. traced_wall) in
            if off cand < off best then cand else best)
          (List.hd !layer_runs) !layer_runs
      in
      let wall = l.l_wall in
      let closes =
        Float.abs (l.deliver +. l.send +. l.other -. wall) <= 0.01 *. wall
      in
      tally.attempted <- tally.attempted + 1;
      if not closes then
        fail "accounting"
          [ "layer self times do not sum to the traced wall-clock" ];
      let { system; keys; stream } = captured in
      let block_bytes =
        Array.to_list stream
        |> List.filter_map (function
             | Icc_core.Message.Proposal _ as m ->
                 Some (float_of_int (String.length (Icc_core.Codec.encode m)))
             | _ -> None)
        |> function
        | [] -> failwith "no proposal reached party 1"
        | sizes -> int_of_float (Stats.median sizes)
      in
      let failures = ref [] in
      let crypto_rows, crypto_cost =
        Micro.crypto ~seed system keys ~block_bytes failures
      in
      let pool_rows = Micro.pool_replay system stream in
      let codec_rows = Micro.codec stream failures in
      let erasure_rows =
        Micro.erasure ~seed ~n:sc.Icc_core.Runner.n
          ~t:sc.Icc_core.Runner.t_corrupt ~block_bytes failures
      in
      tally.attempted <- tally.attempted + 1;
      if !failures <> [] then fail "micro checks" (List.rev !failures);
      let c name = counter name u.counters in
      let fi = float_of_int in
      let est =
        crypto_cost ~schnorr_verifies:(c "schnorr_verifies")
          ~schnorr_signs:(c "schnorr_signs") ~dleq_verifies:(c "dleq_verifies")
          ~dleq_proves:(c "dleq_proves")
        /. untraced_wall
      in
      let overhead_pct =
        (traced_wall -. untraced_wall) /. untraced_wall *. 100.
      in
      let metrics = u.result.Icc_core.Runner.metrics in
      let msgs = fi (Icc_sim.Metrics.total_msgs metrics) in
      let kb = fi (Icc_sim.Metrics.total_bytes metrics) /. 1e3 in
      let party_kb = fi (Icc_sim.Metrics.max_bytes_per_party metrics) /. 1e3 in
      let rounds = fi u.result.Icc_core.Runner.rounds_decided in
      Printf.printf
        "identity %s seed %d: traced %s untraced (rounds %d, msgs %d, bytes %d, \
         %d crypto counters)\n"
        w.Workloads.name seed
        (if identity_ok then "=" else "<>")
        u.result.Icc_core.Runner.rounds_decided
        (Icc_sim.Metrics.total_msgs metrics)
        (Icc_sim.Metrics.total_bytes metrics)
        (List.length u.counters);
      Printf.printf
        "accounting %s seed %d: party.deliver_s %.3f + transport.send_s %.3f + \
         sim.other_s %.3f = %.3f s vs traced wall %.3f s (%s); untraced wall \
         %.3f s, trace.overhead_pct %.1f, crypto.est_share %.2f\n"
        w.Workloads.name seed l.deliver l.send l.other
        (l.deliver +. l.send +. l.other)
        wall
        (if closes then "closes" else "does not close")
        untraced_wall overhead_pct est;
      let count name = ("crypto." ^ name, fi (c name), "count") in
      let deliver_us q = Stats.quantile_sorted q l.deliver_us in
      let timed_rows unit = List.map (fun (name, v) -> (name, v, unit name)) in
      let unit_of name =
        let ends s = String.ends_with ~suffix:s name in
        if ends "_us" then "us" else if ends "_mb_s" then "MB/s" else "ratio"
      in
      List.map count
        [
          "schnorr_verifies"; "schnorr_signs"; "dleq_verifies"; "dleq_proves";
          "sha256_digests"; "pow_generic"; "pow_fixed_base"; "multi_exps";
          "batch_fallbacks";
        ]
        @ [
            ( "crypto.verifies_per_sign",
              fi (c "schnorr_verifies") /. fi (max 1 (c "schnorr_signs")),
              "ratio" );
          ]
        @ timed_rows unit_of crypto_rows
        @ [
            ("crypto.est_share", est, "ratio");
            ("party.deliveries", fi l.deliveries, "count");
            ("party.deliver_s", l.deliver, "s");
            ("party.deliver_us_p50", deliver_us 0.5, "us");
            ("party.deliver_us_p99", deliver_us 0.99, "us");
          ]
        @ timed_rows unit_of (pool_rows @ codec_rows @ erasure_rows)
        @ [
            ("engine.events", fi l.events, "count");
            ("engine.events_per_s", fi l.events /. wall, "1/s");
            ("transport.sends", fi l.sends, "count");
            ("transport.send_s", l.send, "s");
            ("sim.other_s", wall -. l.deliver -. l.send, "s");
            ("net.msgs_per_round", msgs /. rounds, "count");
            ("net.kb_per_round", kb /. rounds, "KB");
            ("net.max_party_kb_per_round", party_kb /. rounds, "KB");
            ("net.block_bytes_p50", fi block_bytes, "B");
            ("gc.alloc_mb", u.alloc_mb, "MB");
            ("gc.minor_collections", fi u.minor, "count");
            ("gc.major_collections", fi u.major, "count");
            ("trace.wall_s", wall, "s");
            ("trace.overhead_pct", overhead_pct, "%");
            ("round.wall_ms_p50", Stats.median l.gaps_ms, "ms");
            ( "round.wall_ms_max",
              List.fold_left Float.max neg_infinity l.gaps_ms,
              "ms" );
            ( "sim_latency_ms",
              u.result.Icc_core.Runner.mean_latency *. 1e3,
              "sim_ms" );
          ]

(* --- output ---------------------------------------------------------- *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let () =
  let name = arg "workload" Option.some in
  let seed = arg "seed" int_of_string_opt in
  let seconds = arg "seconds" float_of_string_opt in
  let trace =
    arg "trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
  in
  let w = match Workloads.find name with Some w -> w | None -> usage () in
  let tally = { attempted = 0; failed = 0; reference = None } in
  let metrics =
    match
      if trace then per_layer tally w ~seed ~seconds
      else end_to_end tally w ~seed ~seconds
    with
    | rows -> rows
    | exception e ->
        tally.attempted <- tally.attempted + 1;
        tally.failed <- tally.failed + 1;
        report_failure "benchmark" [ Printexc.to_string e ];
        []
  in
  let metrics =
    if trace then
      let error_rate =
        float_of_int tally.failed /. float_of_int (max 1 tally.attempted)
      in
      metrics @ [ ("error_rate", error_rate, "ratio") ]
    else metrics
  in
  let correct =
    tally.failed = 0 && metrics <> []
    && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit)
          metrics))
