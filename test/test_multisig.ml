(* Multisignature ((t, h, n)-threshold) tests for S_notary / S_final. *)

let rng = Icc_sim.Rng.create 0x0517
let rand_bits () = Icc_sim.Rng.bits61 rng

let take k l = List.filteri (fun i _ -> i < k) l

let setup ?(h = 5) ?(n = 7) () = Icc_crypto.Multisig.setup ~threshold_h:h ~n rand_bits

let test_share_verify () =
  let params, secrets = setup () in
  List.iter
    (fun sk ->
      let s = Icc_crypto.Multisig.sign_share params sk "m" in
      Alcotest.(check bool) "valid" true
        (Icc_crypto.Multisig.verify_share params "m" s))
    secrets

let test_combine_at_threshold () =
  let params, secrets = setup () in
  let shares =
    List.map (fun sk -> Icc_crypto.Multisig.sign_share params sk "m") secrets
  in
  (match Icc_crypto.Multisig.combine params "m" (take 5 shares) with
  | None -> Alcotest.fail "combine at threshold failed"
  | Some s ->
      Alcotest.(check bool) "verifies" true (Icc_crypto.Multisig.verify params "m" s);
      Alcotest.(check int) "5 signers" 5 (List.length s.Icc_crypto.Multisig.signers));
  Alcotest.(check bool) "below threshold" true
    (Icc_crypto.Multisig.combine params "m" (take 4 shares) = None)

let test_duplicates_not_counted () =
  let params, secrets = setup ~h:3 ~n:4 () in
  let s1 = Icc_crypto.Multisig.sign_share params (List.hd secrets) "m" in
  Alcotest.(check bool) "3 copies of one share != 3 shares" true
    (Icc_crypto.Multisig.combine params "m" [ s1; s1; s1 ] = None)

let test_invalid_share_filtered () =
  let params, secrets = setup ~h:3 ~n:4 () in
  let shares =
    List.map (fun sk -> Icc_crypto.Multisig.sign_share params sk "m") secrets
  in
  let forged =
    match shares with
    | a :: b :: _ -> { a with Icc_crypto.Multisig.signer = b.Icc_crypto.Multisig.signer }
    | _ -> assert false
  in
  (* forged share (signature under wrong index) is filtered out *)
  (match Icc_crypto.Multisig.combine params "m" (forged :: take 3 shares) with
  | None -> Alcotest.fail "should still combine from the 3 good shares"
  | Some s ->
      Alcotest.(check bool) "verifies" true (Icc_crypto.Multisig.verify params "m" s))

let test_verify_rejects_subthreshold_object () =
  let params, secrets = setup ~h:3 ~n:4 () in
  let shares =
    List.map (fun sk -> Icc_crypto.Multisig.sign_share params sk "m") secrets
  in
  match Icc_crypto.Multisig.combine params "m" shares with
  | None -> Alcotest.fail "combine"
  | Some s ->
      let stripped =
        {
          Icc_crypto.Multisig.signers = take 2 s.Icc_crypto.Multisig.signers;
          signatures = take 2 s.Icc_crypto.Multisig.signatures;
        }
      in
      Alcotest.(check bool) "stripped rejected" false
        (Icc_crypto.Multisig.verify params "m" stripped)

let test_cross_message_rejected () =
  let params, secrets = setup ~h:2 ~n:3 () in
  let shares =
    List.map (fun sk -> Icc_crypto.Multisig.sign_share params sk "m1") secrets
  in
  match Icc_crypto.Multisig.combine params "m1" shares with
  | None -> Alcotest.fail "combine"
  | Some s ->
      Alcotest.(check bool) "cross-message" false
        (Icc_crypto.Multisig.verify params "m2" s)

let prop_combine_any_h_subset =
  QCheck.Test.make ~name:"multisig any h-subset combines" ~count:30
    (QCheck.pair (QCheck.int_range 1 4) QCheck.small_string) (fun (t, msg) ->
      let n = (3 * t) + 1 in
      let h = n - t in
      let params, secrets = Icc_crypto.Multisig.setup ~threshold_h:h ~n rand_bits in
      let shares =
        Array.of_list
          (List.map (fun sk -> Icc_crypto.Multisig.sign_share params sk msg) secrets)
      in
      Icc_sim.Rng.shuffle_in_place rng shares;
      match
        Icc_crypto.Multisig.combine params msg (Array.to_list (Array.sub shares 0 h))
      with
      | Some s -> Icc_crypto.Multisig.verify params msg s
      | None -> false)

(* --- through the run's verdict memo --- *)

(* A notarization share cached by the memo is not a finalization share:
   the two schemes have different keys, so replaying it under S_final
   must fail, as must the share under another signer index or message. *)
let test_memo_notary_share_not_final () =
  let rng = Icc_sim.Rng.create 0x5e1 in
  let system, keys =
    Icc_crypto.Keygen.generate ~n:4 ~t:1 (fun () -> Icc_sim.Rng.bits61 rng)
  in
  let module M = Icc_crypto.Multisig in
  let check = Icc_crypto.Verdicts.schnorr system.Icc_crypto.Keygen.verdicts in
  let notary = system.Icc_crypto.Keygen.notary
  and final = system.Icc_crypto.Keygen.final in
  let share =
    M.sign_share notary (List.hd keys).Icc_crypto.Keygen.notary_key "m"
  in
  Alcotest.(check bool) "notary share cached" true
    (M.verify_share ~check notary "m" share);
  Alcotest.(check bool) "replayed under final" false
    (M.verify_share ~check final "m" share);
  Alcotest.(check bool) "under another signer index" false
    (M.verify_share ~check notary "m" { share with M.signer = 2 });
  Alcotest.(check bool) "under another message" false
    (M.verify_share ~check notary "m2" share);
  Alcotest.(check bool) "still a notary share" true
    (M.verify_share ~check notary "m" share)

(* Combining through the memo filters exactly what the pure path filters
   and yields the same signature. *)
let test_memo_combine_matches_pure () =
  let params, secrets = setup ~h:3 ~n:4 () in
  let memo = Icc_crypto.Verdicts.create ~n:4 in
  let check = Icc_crypto.Verdicts.schnorr memo in
  let shares =
    List.map (fun sk -> Icc_crypto.Multisig.sign_share params sk "m") secrets
  in
  let forged =
    match shares with
    | a :: b :: _ -> { a with Icc_crypto.Multisig.signer = b.Icc_crypto.Multisig.signer }
    | _ -> assert false
  in
  let input = forged :: take 3 shares in
  let pure = Icc_crypto.Multisig.combine params "m" input in
  Alcotest.(check bool) "same signature, cold memo" true
    (Icc_crypto.Multisig.combine ~check params "m" input = pure);
  Alcotest.(check bool) "same signature, warm memo" true
    (Icc_crypto.Multisig.combine ~check params "m" input = pure);
  match pure with
  | None -> Alcotest.fail "combine"
  | Some s ->
      Alcotest.(check bool) "certificate verifies through the memo" true
        (Icc_crypto.Multisig.verify ~check params "m" s);
      Alcotest.(check bool) "not under another message" false
        (Icc_crypto.Multisig.verify ~check params "m2" s)

let suite =
  [
    Alcotest.test_case "share verify" `Quick test_share_verify;
    Alcotest.test_case "combine threshold" `Quick test_combine_at_threshold;
    Alcotest.test_case "duplicates" `Quick test_duplicates_not_counted;
    Alcotest.test_case "invalid filtered" `Quick test_invalid_share_filtered;
    Alcotest.test_case "subthreshold rejected" `Quick
      test_verify_rejects_subthreshold_object;
    Alcotest.test_case "cross-message" `Quick test_cross_message_rejected;
    QCheck_alcotest.to_alcotest prop_combine_any_h_subset;
    Alcotest.test_case "memo: notary share not final" `Quick
      test_memo_notary_share_not_final;
    Alcotest.test_case "memo: combine matches pure" `Quick
      test_memo_combine_matches_pure;
  ]
