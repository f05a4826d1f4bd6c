(* Chaum–Pedersen DLEQ proof tests. *)

let rng = Icc_sim.Rng.create 0xd1e0
let rand_bits () = Icc_sim.Rng.bits61 rng

let fresh_bases () =
  let h =
    Icc_crypto.Group.hash_to_group
      (Icc_crypto.Sha256.digest_string (string_of_int (rand_bits ())))
  in
  (Icc_crypto.Group.generator, h)

let test_accepts_honest () =
  let base1, base2 = fresh_bases () in
  let x = Icc_crypto.Group.random_scalar rand_bits in
  let proof = Icc_crypto.Dleq.prove ~base1 ~base2 ~exponent:x ~msg_tag:"t" in
  Alcotest.(check bool) "valid" true
    (Icc_crypto.Dleq.verify ~base1 ~base2
       ~a:(Icc_crypto.Group.pow base1 x)
       ~b:(Icc_crypto.Group.pow base2 x)
       proof)

let test_rejects_mismatched_exponents () =
  let base1, base2 = fresh_bases () in
  let x = Icc_crypto.Group.random_scalar rand_bits in
  let y = Icc_crypto.Group.scalar_add x 1 in
  let proof = Icc_crypto.Dleq.prove ~base1 ~base2 ~exponent:x ~msg_tag:"t" in
  Alcotest.(check bool) "a=g^x, b=h^y rejected" false
    (Icc_crypto.Dleq.verify ~base1 ~base2
       ~a:(Icc_crypto.Group.pow base1 x)
       ~b:(Icc_crypto.Group.pow base2 y)
       proof)

let test_rejects_tampered_proof () =
  let base1, base2 = fresh_bases () in
  let x = Icc_crypto.Group.random_scalar rand_bits in
  let proof = Icc_crypto.Dleq.prove ~base1 ~base2 ~exponent:x ~msg_tag:"t" in
  let bad =
    {
      proof with
      Icc_crypto.Dleq.response =
        Icc_crypto.Group.scalar_add proof.Icc_crypto.Dleq.response 1;
    }
  in
  Alcotest.(check bool) "tampered" false
    (Icc_crypto.Dleq.verify ~base1 ~base2
       ~a:(Icc_crypto.Group.pow base1 x)
       ~b:(Icc_crypto.Group.pow base2 x)
       bad)

let prop_roundtrip =
  QCheck.Test.make ~name:"dleq roundtrip" ~count:60 QCheck.small_string
    (fun tag ->
      let base1, base2 = fresh_bases () in
      let x = Icc_crypto.Group.random_scalar rand_bits in
      let proof = Icc_crypto.Dleq.prove ~base1 ~base2 ~exponent:x ~msg_tag:tag in
      Icc_crypto.Dleq.verify ~base1 ~base2
        ~a:(Icc_crypto.Group.pow base1 x)
        ~b:(Icc_crypto.Group.pow base2 x)
        proof)

let prop_wrong_statement_rejected =
  QCheck.Test.make ~name:"dleq rejects wrong statement" ~count:60
    (QCheck.int_range 1 1_000_000) (fun delta ->
      let base1, base2 = fresh_bases () in
      let x = Icc_crypto.Group.random_scalar rand_bits in
      let proof = Icc_crypto.Dleq.prove ~base1 ~base2 ~exponent:x ~msg_tag:"t" in
      not
        (Icc_crypto.Dleq.verify ~base1 ~base2
           ~a:(Icc_crypto.Group.pow base1 x)
           ~b:(Icc_crypto.Group.pow base2 (Icc_crypto.Group.scalar_add x delta))
           proof))

(* A forger who moves the carried commitments and recomputes the
   challenge hash over them, so the hash check passes and only the two
   group equations can catch the forgery.  [which] picks k1, k2, or both
   shifted consistently with the response (base_i^d on each side). *)
let prop_rehashed_commitment_rejected =
  QCheck.Test.make ~name:"dleq rejects re-hashed commitments" ~count:60
    (QCheck.pair (QCheck.int_range 1 1_000_000) (QCheck.int_bound 2))
    (fun (delta, which) ->
      let module G = Icc_crypto.Group in
      let module D = Icc_crypto.Dleq in
      let base1, base2 = fresh_bases () in
      let x = G.random_scalar rand_bits in
      let a = G.pow base1 x and b = G.pow base2 x in
      let pf = D.prove ~base1 ~base2 ~exponent:x ~msg_tag:"t" in
      let challenge commit1 commit2 =
        G.scalar_of_hash
          (Icc_crypto.Sha256.digest_string
             (Printf.sprintf "dleq|%d|%d|%d|%d|%d|%d" base1 base2 a b commit1
                commit2))
      in
      let shift base k = G.mul k (G.pow base delta) in
      let commit1, commit2, response =
        match which with
        | 0 -> (shift base1 pf.D.commit1, pf.D.commit2, pf.D.response)
        | 1 -> (pf.D.commit1, shift base2 pf.D.commit2, pf.D.response)
        | _ ->
            ( shift base1 pf.D.commit1,
              shift base2 pf.D.commit2,
              G.scalar_add pf.D.response delta )
      in
      let forged =
        { D.commit1; commit2; response; challenge = challenge commit1 commit2 }
      in
      (* the recomputed hash is the one [verify] checks *)
      G.scalar_equal pf.D.challenge (challenge pf.D.commit1 pf.D.commit2)
      && not (D.verify ~base1 ~base2 ~a ~b forged))

let suite =
  [
    Alcotest.test_case "accepts honest" `Quick test_accepts_honest;
    Alcotest.test_case "rejects mismatch" `Quick test_rejects_mismatched_exponents;
    Alcotest.test_case "rejects tampered" `Quick test_rejects_tampered_proof;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_wrong_statement_rejected;
    QCheck_alcotest.to_alcotest prop_rehashed_commitment_rejected;
  ]
