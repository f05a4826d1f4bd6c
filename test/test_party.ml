(* Targeted protocol-mechanism tests: the echo rule, selective delivery by
   a faulty sender, and message-bound sanity.  Fault injection happens at
   the transport layer, wrapping ICC0's direct transport. *)

(* A transport that drops messages according to [drop ~src ~dst msg]. *)
let lossy_transport ~drop : Icc_core.Runner.transport =
 fun ctx ->
  let inner = Icc_core.Runner.direct_transport ctx in
  {
    Icc_core.Runner.tx_broadcast =
      (fun ~src msg ->
        (* emulate per-destination sending so the filter can apply *)
        for dst = 1 to ctx.Icc_core.Runner.tr_env.Icc_sim.Transport.n do
          if not (drop ~src ~dst msg) then
            inner.Icc_core.Runner.tx_unicast ~src ~dst msg
        done);
    tx_unicast =
      (fun ~src ~dst msg ->
        if not (drop ~src ~dst msg) then
          inner.Icc_core.Runner.tx_unicast ~src ~dst msg);
  }

let base ?(n = 4) ?(seed = 5) () =
  {
    (Icc_core.Runner.default_scenario ~n ~seed) with
    Icc_core.Runner.duration = 20.;
    delay = Icc_core.Runner.Fixed_delay 0.05;
    epsilon = 0.2;
    delta_bnd = 0.3;
  }

let is_proposal = function Icc_core.Message.Proposal _ -> true | _ -> false

(* A transport that sends every message twice: with a fixed delay model both
   copies arrive back-to-back, so the run exercises duplicate delivery of
   every single protocol message. *)
let duplicating_transport : Icc_core.Runner.transport =
 fun ctx ->
  let inner = Icc_core.Runner.direct_transport ctx in
  {
    Icc_core.Runner.tx_broadcast =
      (fun ~src msg ->
        inner.Icc_core.Runner.tx_broadcast ~src msg;
        inner.Icc_core.Runner.tx_broadcast ~src msg);
    tx_unicast =
      (fun ~src ~dst msg ->
        inner.Icc_core.Runner.tx_unicast ~src ~dst msg;
        inner.Icc_core.Runner.tx_unicast ~src ~dst msg);
  }

let test_on_message_idempotent () =
  (* Party.on_message must be idempotent: replaying every message twice
     (second copy arriving immediately after the first, same content) leaves
     the committed chains byte-identical to the clean run.  The fixed delay
     model keeps the duplicate from perturbing any RNG stream, so any chain
     difference is a genuine idempotency failure. *)
  let once = Icc_core.Runner.run (base ()) in
  let twice =
    Icc_core.Runner.run
      { (base ()) with
        Icc_core.Runner.transport = Some duplicating_transport }
  in
  Alcotest.(check bool) "safety under duplication" true
    twice.Icc_core.Runner.safety_ok;
  Alcotest.(check int) "same rounds decided"
    once.Icc_core.Runner.rounds_decided twice.Icc_core.Runner.rounds_decided;
  Alcotest.(check int) "same parties reporting"
    (List.length once.Icc_core.Runner.outputs)
    (List.length twice.Icc_core.Runner.outputs);
  List.iter2
    (fun (id1, c1) (id2, c2) ->
      Alcotest.(check int) "same party id" id1 id2;
      Alcotest.(check bool)
        (Printf.sprintf "party %d chain identical under duplication" id1)
        true
        (c1 = c2))
    once.Icc_core.Runner.outputs twice.Icc_core.Runner.outputs

let test_echo_repairs_selective_proposals () =
  (* party 1's proposals never reach parties 3 and 4 directly; the echo
     step (condition (c)) must still disseminate them, so liveness and the
     usual latency hold *)
  let drop ~src ~dst msg = src = 1 && (dst = 3 || dst = 4) && is_proposal msg in
  let r =
    Icc_core.Runner.run
      { (base ()) with
        Icc_core.Runner.transport = Some (lossy_transport ~drop) }
  in
  Alcotest.(check bool) "safety" true r.Icc_core.Runner.safety_ok;
  Alcotest.(check bool)
    (Printf.sprintf "liveness (%d rounds)" r.Icc_core.Runner.rounds_decided)
    true
    (r.Icc_core.Runner.rounds_decided >= 50);
  (* party 1's blocks still get committed in the rounds it leads *)
  match r.Icc_core.Runner.outputs with
  | (_, chain) :: _ ->
      let by_one =
        List.length
          (List.filter (fun b -> b.Icc_core.Block.proposer = 1) chain)
      in
      Alcotest.(check bool)
        (Printf.sprintf "party 1 proposals committed (%d)" by_one)
        true (by_one > 5)
  | [] -> Alcotest.fail "no outputs"

let test_withheld_notarization_shares_tolerated () =
  (* one party's notarization shares are all lost: quorum n-t = 3 of the
     remaining parties still notarizes every round *)
  let drop ~src ~dst:_ msg =
    src = 2
    &&
    match msg with Icc_core.Message.Notarization_share _ -> true | _ -> false
  in
  let r =
    Icc_core.Runner.run
      { (base ()) with
        Icc_core.Runner.transport = Some (lossy_transport ~drop) }
  in
  Alcotest.(check bool) "safety" true r.Icc_core.Runner.safety_ok;
  Alcotest.(check bool) "liveness" true (r.Icc_core.Runner.rounds_decided >= 50)

let test_lost_finalization_shares_defer_decisions () =
  (* finalization shares from two parties are lost: no round reaches the
     n-t finalization quorum directly... with n=4, t=1 quorum 3 needs 3 of
     4; dropping 2 parties' shares leaves 2 < 3 — yet safety and chain
     growth must persist: blocks commit only when... in fact nothing can
     finalize, so nothing commits; P1 still holds (notarized every round).

     This documents that finalization — unlike notarization — is optional
     for tree growth (paper §3.3: the tree grows in every round). *)
  let drop ~src ~dst:_ msg =
    (src = 2 || src = 3)
    &&
    match msg with Icc_core.Message.Finalization_share _ -> true | _ -> false
  in
  let r =
    Icc_core.Runner.run
      { (base ()) with
        Icc_core.Runner.duration = 8.;
        Icc_core.Runner.transport = Some (lossy_transport ~drop) }
  in
  Alcotest.(check bool) "safety" true r.Icc_core.Runner.safety_ok;
  Alcotest.(check int) "nothing finalized" 0 r.Icc_core.Runner.rounds_decided;
  Alcotest.(check bool) "p1 (tree keeps growing)" true r.Icc_core.Runner.p1_ok

let test_proposal_broadcast_bound () =
  (* each honest party broadcasts O(1) proposals (own + echoes) per round in
     synchronous honest execution: kind-count proposal <= ~2 per party-round *)
  let r = Icc_core.Runner.run (base ~n:7 ()) in
  let proposals =
    Icc_sim.Metrics.msgs_of_kind r.Icc_core.Runner.metrics "proposal"
  in
  let rounds = r.Icc_core.Runner.rounds_decided in
  (* unicast transmissions: each broadcast counts n-1 *)
  let broadcasts = proposals / 6 in
  let per_party_round = float_of_int broadcasts /. float_of_int (7 * rounds) in
  Alcotest.(check bool)
    (Printf.sprintf "<= 2 proposal broadcasts per party-round (%.2f)"
       per_party_round)
    true
    (per_party_round <= 2.0)

let test_beacon_pipelining_is_one_round_ahead () =
  (* the adversary can know the beacon one round ahead (paper §3.5): after a
     run, party pools contain beacon shares for round rounds_finished + 1 *)
  let r = Icc_core.Runner.run { (base ()) with duration = 5. } in
  ignore r;
  (* indirect check: rounds complete at all implies pipelining worked, since
     round k+1's shares are broadcast during round k; verified directly in
     test_beacon.  Here we assert the run advanced well past round 1. *)
  Alcotest.(check bool) "advanced" true (r.Icc_core.Runner.rounds_decided > 10)

let test_vacuous_n_still_finalization_shares () =
  (* Paper §3.3 (Fig. 2): a party broadcasts a finalization share for round
     k iff N ⊆ {B}.  When the party finishes the round having shared
     NOTHING (N = ∅) — here, a fully notarized block arrives before its own
     notarization-share timer fires — the containment is vacuously true and
     it must still attest.  Pins the [List.for_all] semantics in
     [Party.condition_a]. *)
  let kit = Kit.make ~n:4 ~t:1 () in
  let engine = Icc_sim.Engine.create () in
  let sent = ref [] in
  let record msg = sent := msg :: !sent in
  let env =
    {
      Icc_core.Party.config =
        Icc_core.Config.recommended ~delta_bnd:1.0 ~epsilon:0.5 ~n:4 ~t:1 ();
      system = kit.Kit.system;
      engine;
      send_broadcast = (fun ~src:_ msg -> record msg);
      send_unicast = (fun ~src:_ ~dst:_ msg -> record msg);
      trace = Icc_sim.Trace.create ();
      get_payload =
        (fun ~pool:_ ~parent:_ ~round:_ ~proposer:_ ->
          Icc_core.Types.empty_payload);
      on_output = (fun ~party:_ _ -> ());
      adversary = None;
    }
  in
  let p =
    Icc_core.Party.create env ~id:1 ~keys:(Kit.key kit 1)
      ~behavior:Icc_core.Party.honest
  in
  Icc_core.Party.start p;
  (* t+1 = 2 peer shares make round 1's beacon computable (the party's own
     share is broadcast, not self-delivered) *)
  let beacon_msg =
    Icc_core.Types.beacon_text ~round:1
      ~prev_sigma:Icc_core.Types.beacon_genesis
  in
  List.iter
    (fun signer ->
      Icc_core.Party.on_message p
        (Icc_core.Message.Beacon_share
           {
             b_round = 1;
             b_signer = signer;
             b_share =
               Icc_crypto.Threshold_vuf.sign_share
                 kit.Kit.system.Icc_crypto.Keygen.beacon
                 (Kit.key kit signer).Icc_crypto.Keygen.beacon_key beacon_msg;
           }))
    [ 2; 3 ];
  Alcotest.(check int) "round 1 entered" 1 (Icc_core.Party.current_round p);
  (* party 2's block arrives already carrying a full notarization: condition
     (a) finishes the round before any timer could fire (time stands still —
     the engine never runs), so party 1 notarization-shared nothing *)
  let b = Kit.block ~round:1 ~proposer:2 ~parent:None () in
  Icc_core.Party.on_message p
    (Icc_core.Message.Proposal
       {
         Icc_core.Message.p_block = b;
         p_authenticator = Kit.authenticator kit b;
         p_parent_cert = None;
       });
  Icc_core.Party.on_message p
    (Icc_core.Message.Notarization (Kit.notarization kit b [ 2; 3; 4 ]));
  Alcotest.(check int) "finished round 1" 1 (Icc_core.Party.rounds_finished p);
  Alcotest.(check int) "shared nothing (N = empty)" 0
    (List.length
       (List.filter
          (function Icc_core.Message.Notarization_share _ -> true | _ -> false)
          !sent));
  let fin_shares_for_b =
    List.filter
      (function
        | Icc_core.Message.Finalization_share s ->
            Icc_crypto.Sha256.equal s.Icc_core.Types.s_block_hash
              (Icc_core.Block.hash b)
        | _ -> false)
      !sent
  in
  Alcotest.(check int) "finalization share broadcast vacuously" 1
    (List.length fin_shares_for_b)

let suite =
  [
    Alcotest.test_case "echo repairs selective proposals" `Quick
      test_echo_repairs_selective_proposals;
    Alcotest.test_case "withheld notarization shares" `Quick
      test_withheld_notarization_shares_tolerated;
    Alcotest.test_case "lost finalization shares" `Quick
      test_lost_finalization_shares_defer_decisions;
    Alcotest.test_case "proposal broadcast bound" `Quick
      test_proposal_broadcast_bound;
    Alcotest.test_case "beacon pipelining" `Quick
      test_beacon_pipelining_is_one_round_ahead;
    Alcotest.test_case "on_message idempotent under full duplication" `Quick
      test_on_message_idempotent;
    Alcotest.test_case "vacuous N still finalization-shares" `Quick
      test_vacuous_n_still_finalization_shares;
  ]
