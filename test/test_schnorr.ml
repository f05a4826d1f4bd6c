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
  ]
