(* The benchmark harness.

   Part 1 — Bechamel micro-benchmarks, one Test.make per substrate
   operation (crypto, erasure coding, one full simulated round).

   Part 2 — exhibit regeneration: every table and figure-class claim of the
   paper's evaluation, E1 (Table 1) through E8, printed in the same
   rows/series the paper reports.  See DESIGN.md section 2 for the index and
   EXPERIMENTS.md for paper-vs-measured.

     dune exec bench/main.exe            full run (~minutes)
     dune exec bench/main.exe -- --quick reduced sweeps

   End-to-end and per-layer performance is measured by perfbench/ (see
   perfbench/README.md). *)

open Bechamel
open Toolkit

let quick = Array.exists (String.equal "--quick") Sys.argv

(* ----------------------------------------------------------------- *)
(* Part 1: micro-benchmarks                                           *)
(* ----------------------------------------------------------------- *)

let rng = Icc_sim.Rng.create 0xbe7c
let rand_bits () = Icc_sim.Rng.bits61 rng

let kilobyte = String.init 1024 (fun i -> Char.chr (i land 0xff))

let bench_sha256 =
  Test.make ~name:"sha256-1KiB" (Staged.stage (fun () ->
      ignore (Icc_crypto.Sha256.digest_string kilobyte)))

let schnorr_sk, schnorr_pk = Icc_crypto.Schnorr.keygen rand_bits
let schnorr_sig = Icc_crypto.Schnorr.sign schnorr_sk "bench message"

let bench_schnorr_sign =
  Test.make ~name:"schnorr-sign" (Staged.stage (fun () ->
      ignore (Icc_crypto.Schnorr.sign schnorr_sk "bench message")))

let bench_schnorr_verify =
  Test.make ~name:"schnorr-verify" (Staged.stage (fun () ->
      ignore (Icc_crypto.Schnorr.verify schnorr_pk "bench message" schnorr_sig)))

let vuf_params, vuf_secrets = Icc_crypto.Threshold_vuf.setup ~threshold_t:4 ~n:13 rand_bits
let vuf_msg = "beacon round 7"
let vuf_shares =
  List.map (fun sk -> Icc_crypto.Threshold_vuf.sign_share vuf_params sk vuf_msg)
    vuf_secrets

let bench_vuf_share =
  Test.make ~name:"beacon-share-sign" (Staged.stage (fun () ->
      ignore
        (Icc_crypto.Threshold_vuf.sign_share vuf_params (List.hd vuf_secrets)
           vuf_msg)))

let bench_vuf_verify_share =
  Test.make ~name:"beacon-share-verify" (Staged.stage (fun () ->
      ignore
        (Icc_crypto.Threshold_vuf.verify_share vuf_params vuf_msg
           (List.hd vuf_shares))))

let bench_vuf_combine =
  Test.make ~name:"beacon-combine-t5" (Staged.stage (fun () ->
      ignore (Icc_crypto.Threshold_vuf.combine vuf_params vuf_msg vuf_shares)))

let ms_params, ms_secrets = Icc_crypto.Multisig.setup ~threshold_h:9 ~n:13 rand_bits
let ms_msg = "notarization|7|3|deadbeef"
let ms_shares =
  List.map (fun sk -> Icc_crypto.Multisig.sign_share ms_params sk ms_msg) ms_secrets

let bench_multisig_combine =
  Test.make ~name:"multisig-combine-9of13" (Staged.stage (fun () ->
      ignore (Icc_crypto.Multisig.combine ms_params ms_msg ms_shares)))

let rs_data = String.init 65536 (fun i -> Char.chr (i land 0xff))
let rs_coded = Icc_erasure.Reed_solomon.encode ~k:5 ~n:13 rs_data
let rs_fragments =
  List.filteri (fun i _ -> i mod 2 = 0)
    (Array.to_list
       (Array.mapi (fun i f -> (i, f)) rs_coded.Icc_erasure.Reed_solomon.fragments))

let bench_rs_encode =
  Test.make ~name:"reed-solomon-encode-64KiB" (Staged.stage (fun () ->
      ignore (Icc_erasure.Reed_solomon.encode ~k:5 ~n:13 rs_data)))

let bench_rs_decode =
  Test.make ~name:"reed-solomon-decode-64KiB" (Staged.stage (fun () ->
      ignore
        (Icc_erasure.Reed_solomon.decode ~k:5 ~n:13 ~data_size:65536 rs_fragments)))

let merkle_leaves = List.init 13 (fun i -> Printf.sprintf "leaf-%d" i)
let merkle_root = Icc_crypto.Merkle.root_of_leaves merkle_leaves
let merkle_proof = Icc_crypto.Merkle.prove merkle_leaves 7

let bench_merkle_prove =
  Test.make ~name:"merkle-prove-13" (Staged.stage (fun () ->
      ignore (Icc_crypto.Merkle.prove merkle_leaves 7)))

let bench_merkle_verify =
  Test.make ~name:"merkle-verify-13" (Staged.stage (fun () ->
      ignore (Icc_crypto.Merkle.verify ~root:merkle_root ~leaf:"leaf-7" merkle_proof)))

let bench_icc0_rounds =
  (* one full simulated five-round ICC0 consensus among 4 parties,
     including key generation — the end-to-end cost of the protocol *)
  Test.make ~name:"icc0-5-rounds-n4" (Staged.stage (fun () ->
      ignore
        (Icc_core.Runner.run
           {
             (Icc_core.Runner.default_scenario ~n:4 ~seed:1) with
             Icc_core.Runner.duration = 1e6;
             max_rounds = Some 5;
             delay = Icc_core.Runner.Fixed_delay 0.02;
             epsilon = 0.05;
           })))

let micro_tests =
  Test.make_grouped ~name:"icc" ~fmt:"%s/%s"
    [
      bench_sha256;
      bench_schnorr_sign;
      bench_schnorr_verify;
      bench_vuf_share;
      bench_vuf_verify_share;
      bench_vuf_combine;
      bench_multisig_combine;
      bench_rs_encode;
      bench_rs_decode;
      bench_merkle_prove;
      bench_merkle_verify;
      bench_icc0_rounds;
    ]

let run_micro () =
  print_endline "== micro-benchmarks (bechamel, monotonic clock) ==";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg
      ~limit:(if quick then 200 else 1000)
      ~quota:(Time.second (if quick then 0.2 else 0.5))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg instances micro_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-34s %16s\n" "operation" "time per run";
  List.iter
    (fun (name, ns) ->
      let human =
        if ns > 1e9 then Printf.sprintf "%8.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-34s %16s\n" name human)
    rows;
  print_newline ()

(* ----------------------------------------------------------------- *)
(* Part 1b: per-round timeline, derived from the trace consumer       *)
(* ----------------------------------------------------------------- *)

(* For each protocol variant on one fixed scenario: the per-round pipeline
   deltas (first round entry -> first proposal -> first notarization ->
   first finalization) and the per-kind traffic breakdown.  Every number
   comes out of the Metrics trace subscriber. *)
let timeline_scenario ~seed =
  {
    (Icc_core.Runner.default_scenario ~n:7 ~seed) with
    Icc_core.Runner.duration = 10.;
    delay = Icc_core.Runner.Fixed_delay 0.05;
    (* invariants watched while the timelines run *)
    monitor = Some (Icc_sim.Monitor.default_config ~delta:1.0 ());
  }

let print_timeline label (metrics : Icc_sim.Metrics.t) =
  Printf.printf "-- %s: per-round pipeline (first events, seconds) --\n" label;
  Printf.printf "%5s %9s %10s %10s %10s %9s\n" "round" "entry" "+propose"
    "+notarize" "+finalize" "total";
  let dash w = String.make (w - 1) ' ' ^ "-" in
  let abs = function
    | Some a -> Printf.sprintf "%9.3f" a
    | None -> dash 9
  in
  let delta w a b =
    match (a, b) with
    | Some a, Some b -> Printf.sprintf "%*.3f" w (b -. a)
    | _ -> dash w
  in
  let rounds = Icc_sim.Metrics.max_round metrics in
  let shown = min rounds 8 in
  for round = 1 to shown do
    let entry = Icc_sim.Metrics.round_entry_time metrics round in
    let prop = Icc_sim.Metrics.proposal_time metrics round in
    let notz = Icc_sim.Metrics.notarization_time metrics round in
    let fin = Icc_sim.Metrics.finalization_time metrics round in
    Printf.printf "%5d %s %s %s %s %s\n" round (abs entry)
      (delta 10 entry prop) (delta 10 prop notz) (delta 10 notz fin)
      (delta 9 entry fin)
  done;
  if rounds > shown then Printf.printf "  ... (%d rounds total)\n" rounds;
  print_endline "   traffic by kind:";
  List.iter
    (fun (kind, msgs, bytes) ->
      Printf.printf "     %-18s %7d msgs %10d bytes\n" kind msgs bytes)
    (Icc_sim.Metrics.kinds metrics);
  print_newline ()

let monitor_verdict label (r : Icc_core.Runner.result) =
  match r.Icc_core.Runner.monitor with
  | None -> ()
  | Some m -> Printf.printf "   %s %s\n" label (Icc_sim.Monitor.summary m)

let run_timelines () =
  print_endline
    "== per-round timelines (ICC0 / ICC1 / ICC2, n=7, delta=50ms) ==";
  let r0 = Icc_core.Runner.run (timeline_scenario ~seed:42) in
  print_timeline "ICC0 (direct)" r0.Icc_core.Runner.metrics;
  monitor_verdict "ICC0" r0;
  let r1 = Icc_gossip.Icc1.run (timeline_scenario ~seed:42) in
  print_timeline "ICC1 (gossip)" r1.Icc_core.Runner.metrics;
  monitor_verdict "ICC1" r1;
  let r2 = Icc_rbc.Icc2.run (timeline_scenario ~seed:42) in
  print_timeline "ICC2 (erasure RBC)" r2.Icc_core.Runner.metrics;
  monitor_verdict "ICC2" r2

(* ----------------------------------------------------------------- *)
(* Part 2: exhibit regeneration                                       *)
(* ----------------------------------------------------------------- *)

let exhibit name f =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "  [%s regenerated in %.1f s]\n\n" name (Unix.gettimeofday () -. t0)

let () =
  Printf.printf "ICC reproduction benchmark harness%s\n\n"
    (if quick then " (quick mode)" else "");
  run_micro ();
  run_timelines ();
  exhibit "E1" (fun () ->
      Icc_experiments.Table1.print (Icc_experiments.Table1.run ~quick ()));
  exhibit "E2" (fun () ->
      Icc_experiments.Msg_complexity.print
        (Icc_experiments.Msg_complexity.run ~quick ()));
  exhibit "E3" (fun () ->
      Icc_experiments.Round_complexity.print
        (Icc_experiments.Round_complexity.run ~quick ()));
  exhibit "E4" (fun () ->
      Icc_experiments.Throughput_latency.print
        (Icc_experiments.Throughput_latency.run ~quick ()));
  exhibit "E5" (fun () ->
      Icc_experiments.Leader_bottleneck.print
        (Icc_experiments.Leader_bottleneck.run ~quick ()));
  exhibit "E6" (fun () ->
      Icc_experiments.Baselines_compare.print
        (Icc_experiments.Baselines_compare.run ~quick ()));
  exhibit "E7" (fun () ->
      Icc_experiments.Robustness.print (Icc_experiments.Robustness.run ~quick ()));
  exhibit "E8" (fun () ->
      Icc_experiments.Asynchrony.print (Icc_experiments.Asynchrony.run ~quick ()));
  exhibit "E9" (fun () ->
      Icc_experiments.Adaptivity.print (Icc_experiments.Adaptivity.run ~quick ()))
