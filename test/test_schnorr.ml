(* Schnorr signature tests. *)

let rng = Icc_sim.Rng.create 0xabc1
let rand_bits () = Icc_sim.Rng.bits61 rng

let test_sign_verify () =
  let sk, pk = Icc_crypto.Schnorr.keygen rand_bits in
  let msg = "propose block 42" in
  let s = Icc_crypto.Schnorr.sign sk msg in
  Alcotest.(check bool) "valid" true (Icc_crypto.Schnorr.verify pk msg s)

let test_wrong_message_rejected () =
  let sk, pk = Icc_crypto.Schnorr.keygen rand_bits in
  let s = Icc_crypto.Schnorr.sign sk "m1" in
  Alcotest.(check bool) "other msg" false (Icc_crypto.Schnorr.verify pk "m2" s)

let test_wrong_key_rejected () =
  let sk, _pk = Icc_crypto.Schnorr.keygen rand_bits in
  let _, pk2 = Icc_crypto.Schnorr.keygen rand_bits in
  let s = Icc_crypto.Schnorr.sign sk "m" in
  Alcotest.(check bool) "other key" false (Icc_crypto.Schnorr.verify pk2 "m" s)

let test_tampered_signature_rejected () =
  let sk, pk = Icc_crypto.Schnorr.keygen rand_bits in
  let s = Icc_crypto.Schnorr.sign sk "m" in
  let bad =
    {
      s with
      Icc_crypto.Schnorr.response =
        Icc_crypto.Group.scalar_add s.Icc_crypto.Schnorr.response 1;
    }
  in
  Alcotest.(check bool) "tampered" false (Icc_crypto.Schnorr.verify pk "m" bad)

let test_deterministic () =
  let sk, _ = Icc_crypto.Schnorr.keygen rand_bits in
  Alcotest.(check bool) "derandomised" true
    (Icc_crypto.Schnorr.sign sk "m" = Icc_crypto.Schnorr.sign sk "m")

let test_public_key_of_secret () =
  let sk, pk = Icc_crypto.Schnorr.keygen rand_bits in
  Alcotest.(check bool) "derivable" true
    (Icc_crypto.Schnorr.public_key_of_secret sk = pk)

let prop_roundtrip =
  QCheck.Test.make ~name:"schnorr sign/verify roundtrip" ~count:60
    QCheck.small_string (fun msg ->
      let sk, pk = Icc_crypto.Schnorr.keygen rand_bits in
      Icc_crypto.Schnorr.verify pk msg (Icc_crypto.Schnorr.sign sk msg))

let prop_cross_message_rejected =
  QCheck.Test.make ~name:"schnorr rejects cross-message" ~count:60
    (QCheck.pair QCheck.small_string QCheck.small_string) (fun (m1, m2) ->
      QCheck.assume (m1 <> m2);
      let sk, pk = Icc_crypto.Schnorr.keygen rand_bits in
      not (Icc_crypto.Schnorr.verify pk m2 (Icc_crypto.Schnorr.sign sk m1)))

(* A forger who moves the carried commitment R and recomputes the
   challenge hash over it, so the hash check passes and only the group
   equation g^s = R * pk^c can catch the forgery.  The response is kept, or
   shifted by the same exponent as R. *)
let prop_rehashed_commitment_rejected =
  QCheck.Test.make ~name:"schnorr rejects re-hashed commitment" ~count:60
    (QCheck.triple QCheck.small_string (QCheck.int_range 1 1_000_000)
       QCheck.bool) (fun (msg, delta, shift_response) ->
      let module G = Icc_crypto.Group in
      let module S = Icc_crypto.Schnorr in
      let sk, pk = S.keygen rand_bits in
      let sg = S.sign sk msg in
      let challenge commitment =
        G.scalar_of_hash
          (Icc_crypto.Sha256.digest_string
             (Printf.sprintf "schnorr|%d|%d|%s" commitment pk.S.pk msg))
      in
      let commitment = G.mul sg.S.commitment (G.base_pow delta) in
      let forged =
        {
          S.commitment;
          challenge = challenge commitment;
          response =
            (if shift_response then G.scalar_add sg.S.response delta
             else sg.S.response);
        }
      in
      (* the recomputed hash is the one [verify] checks *)
      G.scalar_equal sg.S.challenge (challenge sg.S.commitment)
      && not (S.verify pk msg forged))

(* --- the run's verdict memo ([Verdicts.schnorr]) --- *)

let executed () = Icc_obs.Registry.value Icc_crypto.Counters.schnorr_verifies

(* Once a valid (pk, msg, signature) is cached, nothing that differs from it
   in any one part may ride on its verdict: each key component is tested
   by an item that differs from the cached one in that component only. *)
let test_memo_rejects_near_misses () =
  let module G = Icc_crypto.Group in
  let module S = Icc_crypto.Schnorr in
  let memo = Icc_crypto.Verdicts.create ~n:4 in
  let sk, pk = S.keygen rand_bits in
  let _, pk2 = S.keygen rand_bits in
  let s = S.sign sk "m" in
  Alcotest.(check bool) "valid cached" true
    (Icc_crypto.Verdicts.schnorr memo pk "m" s);
  let e0 = executed () in
  Alcotest.(check bool) "valid hits" true
    (Icc_crypto.Verdicts.schnorr memo pk "m" s);
  Alcotest.(check int) "the hit executed nothing" e0 (executed ());
  let rejects what pk msg sg =
    Alcotest.(check bool) what false (Icc_crypto.Verdicts.schnorr memo pk msg sg)
  in
  rejects "forged challenge" pk "m"
    { s with S.challenge = G.scalar_add s.S.challenge 1 };
  rejects "forged response" pk "m"
    { s with S.response = G.scalar_add s.S.response 1 };
  rejects "forged commitment" pk "m"
    { s with S.commitment = G.mul s.S.commitment G.generator };
  rejects "valid signature, other message" pk "m2" s;
  rejects "valid signature, other signer's key" pk2 "m" s;
  Alcotest.(check bool) "valid still accepted" true
    (Icc_crypto.Verdicts.schnorr memo pk "m" s)

(* Only [true] verdicts are stored: a forgery pays a real check each time
   and does not stop its valid twin from being accepted. *)
let test_memo_never_caches_rejections () =
  let module S = Icc_crypto.Schnorr in
  let memo = Icc_crypto.Verdicts.create ~n:4 in
  let sk, pk = S.keygen rand_bits in
  let s = S.sign sk "m" in
  let forged = { s with S.response = Icc_crypto.Group.scalar_add s.S.response 1 } in
  let e0 = executed () in
  for _ = 1 to 3 do
    Alcotest.(check bool) "forged rejected" false
      (Icc_crypto.Verdicts.schnorr memo pk "m" forged)
  done;
  Alcotest.(check int) "each rejection executed" (e0 + 3) (executed ());
  Alcotest.(check int) "nothing stored" 0 (Icc_crypto.Verdicts.entries memo);
  Alcotest.(check bool) "valid accepted" true
    (Icc_crypto.Verdicts.schnorr memo pk "m" s)

(* A Byzantine signer can mint valid signatures without end; the memo
   holds at most two generations of them. *)
let test_memo_bounded_under_flood () =
  let memo = Icc_crypto.Verdicts.create ~n:4 in
  let cap = Icc_crypto.Verdicts.capacity memo in
  let sk, pk = Icc_crypto.Schnorr.keygen rand_bits in
  for i = 1 to 10 * cap do
    let msg = "spam " ^ string_of_int i in
    assert (
      Icc_crypto.Verdicts.schnorr memo pk msg (Icc_crypto.Schnorr.sign sk msg))
  done;
  let held = Icc_crypto.Verdicts.entries memo in
  Alcotest.(check bool)
    (Printf.sprintf "%d entries <= 2 x %d" held cap)
    true
    (held <= 2 * cap && held >= cap)

(* The memo belongs to one key generation: two runs of one seed have the
   same keys but share no verdict. *)
let test_memo_is_per_run () =
  let generate () =
    let rng = Icc_sim.Rng.create 77 in
    Icc_crypto.Keygen.generate ~n:4 ~t:1 (fun () -> Icc_sim.Rng.bits61 rng)
  in
  let sys1, keys = generate () and sys2, _ = generate () in
  let k1 = List.hd keys in
  let pk = sys1.Icc_crypto.Keygen.auth_pub.(0) in
  Alcotest.(check bool) "same keys" true (pk = sys2.Icc_crypto.Keygen.auth_pub.(0));
  let s = Icc_crypto.Schnorr.sign k1.Icc_crypto.Keygen.auth "m" in
  let check sys = Icc_crypto.Verdicts.schnorr sys.Icc_crypto.Keygen.verdicts pk "m" s in
  let e0 = executed () in
  Alcotest.(check bool) "run 1" true (check sys1);
  Alcotest.(check bool) "run 1 again" true (check sys1);
  Alcotest.(check int) "run 1 executed once" (e0 + 1) (executed ());
  Alcotest.(check bool) "run 2" true (check sys2);
  Alcotest.(check int) "run 2 executes its own" (e0 + 2) (executed ())

let suite =
  [
    Alcotest.test_case "sign/verify" `Quick test_sign_verify;
    Alcotest.test_case "wrong message" `Quick test_wrong_message_rejected;
    Alcotest.test_case "wrong key" `Quick test_wrong_key_rejected;
    Alcotest.test_case "tampered" `Quick test_tampered_signature_rejected;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "pk of sk" `Quick test_public_key_of_secret;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_cross_message_rejected;
    QCheck_alcotest.to_alcotest prop_rehashed_commitment_rejected;
    Alcotest.test_case "memo rejects near misses" `Quick
      test_memo_rejects_near_misses;
    Alcotest.test_case "memo never caches rejections" `Quick
      test_memo_never_caches_rejections;
    Alcotest.test_case "memo bounded under flood" `Quick
      test_memo_bounded_under_flood;
    Alcotest.test_case "memo is per run" `Quick test_memo_is_per_run;
  ]
