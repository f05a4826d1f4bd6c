(* Trusted-dealer key generation for a full ICC deployment (paper §3.1–3.2):
   per-party authentication keys (S_auth) plus the three threshold schemes
   S_notary and S_final (both (t, n-t, n)) and S_beacon ((t, t+1, n), unique
   signatures).  The paper allows either a trusted dealer or a distributed
   key generation protocol; the dealer is implemented here, the DKG being
   outside the paper's scope. *)

type system = {
  n : int;
  t : int; (* maximum number of corrupt parties; t < n/3 *)
  auth_pub : Schnorr.public_key array; (* index 0 = party 1 *)
  notary : Multisig.params;
  final : Multisig.params;
  beacon : Threshold_vuf.params;
  verdicts : Verdicts.t;
      (* the run's verify-once memo: one per [generate], so every party of
         the run shares it and no verdict outlives the run *)
}

type party_keys = {
  index : int; (* 1-based *)
  auth : Schnorr.secret_key;
  notary_key : Multisig.secret;
  final_key : Multisig.secret;
  beacon_key : Threshold_vuf.secret_share;
}

let max_corrupt ~n = (n - 1) / 3

let generate ~n ~t rand_bits =
  if not (n >= 1 && t >= 0 && 3 * t < n) then
    invalid_arg "Keygen.generate: need 3t < n";
  let auth_pairs = List.init n (fun _ -> Schnorr.keygen rand_bits) in
  let notary, notary_secrets = Multisig.setup ~threshold_h:(n - t) ~n rand_bits in
  let final, final_secrets = Multisig.setup ~threshold_h:(n - t) ~n rand_bits in
  let beacon, beacon_secrets = Threshold_vuf.setup ~threshold_t:t ~n rand_bits in
  let system =
    {
      n;
      t;
      auth_pub = Array.of_list (List.map snd auth_pairs);
      notary;
      final;
      beacon;
      verdicts = Verdicts.create ~n;
    }
  in
  let keys =
    List.init n (fun i ->
        {
          index = i + 1;
          auth = fst (List.nth auth_pairs i);
          notary_key = List.nth notary_secrets i;
          final_key = List.nth final_secrets i;
          beacon_key = List.nth beacon_secrets i;
        })
  in
  (system, keys)
