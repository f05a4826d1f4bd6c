(* Golden trace digests: five n=16 runs at fixed seeds, each pinned by the
   SHA-256 of its JSONL trace and the number of rounds it decided.

   The digests were recorded once and must never be edited: any change to
   the code that moves a trace byte — a different RNG draw, message order,
   verdict or timer — fails here.  Refactors and optimisations are checked
   against these runs instead of against a switchable "before" copy of the
   code. *)

module Runner = Icc_core.Runner

let base ~seed ~duration =
  {
    (Runner.default_scenario ~n:16 ~seed) with
    Runner.duration;
    delay = Runner.Fixed_delay 0.02;
  }

let wan = Runner.Wan { rtt_lo = 0.006; rtt_hi = 0.110 }

(* Drop 10% of all messages for a while, and crash party 5 inside that
   window; it recovers after the loss ends and must catch up. *)
let nemesis =
  Icc_sim.Fault.drop ~from_:0.5 ~until:2.0 0.1
  :: Icc_sim.Fault.crash_recover ~party:5 ~down:0.8 ~up:1.8

(* (name, run, scenario, expected rounds decided, expected trace digest) *)
let goldens =
  [
    ( "icc0 direct",
      Runner.run,
      base ~seed:11 ~duration:3.,
      13,
      "9548439e2881855130f17b717cce95c134a70a4fd2b5a73d38133a551bc56a3d" );
    ( "icc1 gossip",
      Icc_gossip.Icc1.run ?fanout:None,
      base ~seed:12 ~duration:3.,
      12,
      "b23d19f8c5cfe4214afac02dab3f58ee338f83edff8d88e08eaa7f9fafcbb3ac" );
    ( "icc2 rbc",
      Icc_rbc.Icc2.run,
      base ~seed:13 ~duration:3.,
      13,
      "ec5bb3dc8af2f9ac53e16acfdfa417f99d4e2ba49ac0db7cb108183bf77f0b30" );
    ( "icc0 wan",
      Runner.run,
      { (base ~seed:14 ~duration:3.) with Runner.delay = wan },
      12,
      "97368b9db09ebae2577b735745f710a9cd641f847477d84025be049627160e74" );
    ( "icc0 nemesis",
      Runner.run,
      { (base ~seed:15 ~duration:4.) with Runner.nemesis = Some nemesis },
      17,
      "8abf05ca2ff6b2f5ea41f94f1710d097f0c16ffd65fe03ce433c879abdaa5f48" );
  ]

let traced run scenario =
  let tr = Icc_sim.Trace.create () in
  let buf = Buffer.create (1 lsl 20) in
  Icc_sim.Trace.subscribe tr (fun ~time ev ->
      Buffer.add_string buf (Icc_sim.Trace.to_json ~time ev);
      Buffer.add_char buf '\n');
  let r = run { scenario with Runner.trace = Some tr } in
  ( r.Runner.rounds_decided,
    Icc_crypto.Sha256.to_hex
      (Icc_crypto.Sha256.digest_string (Buffer.contents buf)) )

let test_goldens () =
  let z0 = Icc_obs.Registry.value Icc_crypto.Counters.zero_rederives in
  List.iter
    (fun (name, run, scenario, rounds, digest) ->
      let got_rounds, got_digest = traced run scenario in
      Alcotest.(check int) (name ^ ": rounds decided") rounds got_rounds;
      Alcotest.(check string) (name ^ ": trace sha256") digest got_digest)
    goldens;
  (* No golden run draws a zero scalar, so the re-derivation branch (whose
     historical 0 -> 1 remap would have shifted these very bytes) is dead
     on every committed scenario. *)
  Alcotest.(check int) "zero_rederives across the golden runs" z0
    (Icc_obs.Registry.value Icc_crypto.Counters.zero_rederives)

let suite = [ Alcotest.test_case "five n=16 trace digests" `Quick test_goldens ]
