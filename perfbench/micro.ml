(* Layer micro-timings on inputs captured from the workload's own run: its
   committee keys, party 1's inbound message stream and its block size.
   Every row also checks its outputs; a failed check is reported by name. *)

let now = Unix.gettimeofday

(* Calls of [f i] per timed batch: enough for a batch to last at least
   [min_batch] seconds, found after a warm-up that fills lazy tables. *)
let batch_size ?(min_batch = 2e-3) f =
  for i = 0 to 7 do
    ignore (Sys.opaque_identity (f i))
  done;
  let rec calibrate m =
    let t0 = now () in
    for i = 0 to m - 1 do
      ignore (Sys.opaque_identity (f i))
    done;
    if now () -. t0 >= min_batch || m >= 1 lsl 20 then m else calibrate (2 * m)
  in
  calibrate 1

(* Seconds per call of [f i], one sample per batch of [m] calls. *)
let time_batches f ~m ~batches =
  List.init batches (fun b ->
      let t0 = now () in
      for i = 0 to m - 1 do
        ignore (Sys.opaque_identity (f ((b * m) + i)))
      done;
      (now () -. t0) /. float_of_int m)

let per_op ?min_batch ?(batches = 21) f =
  Stats.median (time_batches f ~m:(batch_size ?min_batch f) ~batches)

let check failures name ok = if not ok then failures := name :: !failures

(* Deterministic pseudo-random bytes, for payloads of a given size. *)
let bytes_of_seed ~seed len =
  let st = Random.State.make [| seed |] in
  String.init len (fun _ -> Char.chr (Random.State.int st 256))

let crypto ~seed (system : Icc_crypto.Keygen.system)
    (keys : Icc_crypto.Keygen.party_keys array) ~block_bytes failures =
  let open Icc_crypto in
  let nmsg = 64 in
  let msgs =
    Array.init nmsg (fun i ->
        Icc_core.Types.notarization_text ~round:(i + 1) ~proposer:1
          ~block_hash:(Sha256.digest_string (string_of_int (seed + i))))
  in
  let msg i = msgs.(i mod nmsg) in
  let k0 = keys.(0) in
  let sigs = Array.map (Schnorr.sign k0.Keygen.auth) msgs in
  let pk0 = system.Keygen.auth_pub.(0) in
  check failures "schnorr accepts genuine"
    (Array.for_all2 (Schnorr.verify pk0) msgs sigs);
  let forged =
    let s = sigs.(0) in
    { s with Schnorr.response = Group.scalar_add s.Schnorr.response 1 }
  in
  check failures "schnorr rejects forged"
    (not (Schnorr.verify pk0 msgs.(0) forged));
  let sign_us = per_op (fun i -> Schnorr.sign k0.Keygen.auth (msg i)) in
  let verify_us =
    per_op (fun i -> Schnorr.verify pk0 (msg i) sigs.(i mod nmsg))
  in
  (* Beacon shares: a DLEQ proof that the share and the verification key
     share the party's secret exponent. *)
  let beacon = system.Keygen.beacon in
  let base2 =
    Array.map (fun m -> Group.hash_to_group (Sha256.digest_string m)) msgs
  in
  let vk0 = beacon.Threshold_vuf.verification_keys.(0) in
  let shares0 =
    Array.map (Threshold_vuf.sign_share beacon k0.Keygen.beacon_key) msgs
  in
  let dleq_ok i (share : Threshold_vuf.signature_share) proof =
    Dleq.verify ~base1:Group.generator ~base2:base2.(i) ~a:vk0
      ~b:share.Threshold_vuf.value proof
  in
  check failures "dleq accepts genuine"
    (Array.for_all Fun.id
       (Array.mapi (fun i s -> dleq_ok i s s.Threshold_vuf.proof) shares0));
  let forged_proof =
    let p = shares0.(0).Threshold_vuf.proof in
    { p with Dleq.response = Group.scalar_add p.Dleq.response 1 }
  in
  check failures "dleq rejects forged"
    (not (dleq_ok 0 shares0.(0) forged_proof));
  let dleq_verify_us =
    per_op (fun i ->
        let j = i mod nmsg in
        dleq_ok j shares0.(j) shares0.(j).Threshold_vuf.proof)
  in
  let sk0 = k0.Keygen.beacon_key.Threshold_vuf.sk_i in
  let dleq_prove_us =
    per_op (fun i ->
        let j = i mod nmsg in
        Dleq.prove ~base1:Group.generator ~base2:base2.(j) ~exponent:sk0
          ~msg_tag:msgs.(j))
  in
  (* Combining: t+1 beacon shares (pre-verified at admission, as the beacon
     does) and n-t notarization shares (verified by the combine). *)
  let t = system.Keygen.t in
  let vuf_shares =
    Array.map
      (fun m ->
        List.init (t + 1) (fun i ->
            Threshold_vuf.sign_share beacon keys.(i).Keygen.beacon_key m))
      msgs
  in
  check failures "vuf combine verifies"
    (match Threshold_vuf.combine_preverified beacon vuf_shares.(0) with
    | Some s -> Threshold_vuf.verify beacon msgs.(0) s
    | None -> false);
  let vuf_combine_us =
    per_op ~batches:11 (fun i ->
        Threshold_vuf.combine_preverified beacon vuf_shares.(i mod nmsg))
  in
  let notary = system.Keygen.notary in
  let h = notary.Multisig.threshold_h in
  let nmulti = 8 in
  let multi_shares =
    Array.init nmulti (fun j ->
        List.init h (fun i ->
            Multisig.sign_share notary keys.(i).Keygen.notary_key msgs.(j)))
  in
  check failures "multisig combine verifies"
    (match Multisig.combine notary msgs.(0) multi_shares.(0) with
    | Some s -> Multisig.verify notary msgs.(0) s
    | None -> false);
  let multisig_combine_us =
    per_op ~batches:11 (fun i ->
        let j = i mod nmulti in
        Multisig.combine notary msgs.(j) multi_shares.(j))
  in
  let st = Random.State.make [| seed; 61 |] in
  let exps =
    Array.init 256 (fun _ ->
        Random.State.bits st lor (Random.State.bits st lsl 30))
  in
  let bases = Array.map Group.base_pow exps in
  check failures "pow_cached = pow"
    (Group.elt_equal bases.(0) (Group.pow Group.generator exps.(0)));
  let pow_fixed_us = per_op (fun i -> Group.base_pow exps.(i land 255)) in
  let pow_generic_us =
    per_op (fun i -> Group.pow bases.(i land 255) exps.((i + 1) land 255))
  in
  let mb_s len per = float_of_int len /. per /. 1e6 in
  let kib = bytes_of_seed ~seed 1024 in
  let block = bytes_of_seed ~seed:(seed + 1) block_bytes in
  let sha_1k = per_op (fun _ -> Sha256.digest_string kib) in
  let sha_block = per_op (fun _ -> Sha256.digest_string block) in
  let us x = x *. 1e6 in
  ( [
      ("crypto.schnorr_verify_us", us verify_us);
      ("crypto.schnorr_sign_us", us sign_us);
      ("crypto.dleq_verify_us", us dleq_verify_us);
      ("crypto.dleq_prove_us", us dleq_prove_us);
      ("crypto.vuf_combine_us", us vuf_combine_us);
      ("crypto.multisig_combine_us", us multisig_combine_us);
      ("crypto.pow_fixed_us", us pow_fixed_us);
      ("crypto.pow_generic_us", us pow_generic_us);
      ("crypto.sha256_1k_mb_s", mb_s 1024 sha_1k);
      ("crypto.sha256_block_mb_s", mb_s block_bytes sha_block);
    ],
    (* Unit costs of the counted top-level operations, for the estimate of
       crypto's share of the run. *)
    fun ~schnorr_verifies ~schnorr_signs ~dleq_verifies ~dleq_proves ->
      (float_of_int schnorr_verifies *. verify_us)
      +. (float_of_int schnorr_signs *. sign_us)
      +. (float_of_int dleq_verifies *. dleq_verify_us)
      +. (float_of_int dleq_proves *. dleq_prove_us) )

(* Party 1's inbound stream, admitted into a fresh pool through the public
   [add_*] functions exactly as a party does.  Beacon shares go in without
   a verifier: the replay holds no beacon chain to verify them against.
   Resync control messages carry no pool artifact and are skipped. *)
let admit pool (msg : Icc_core.Message.t) =
  let open Icc_core in
  match msg with
  | Message.Proposal { p_block; p_authenticator; p_parent_cert } ->
      let c1 =
        match p_parent_cert with
        | Some cert -> Pool.add_notarization pool cert
        | None -> false
      in
      let c2 = Pool.add_block pool p_block in
      let c3 =
        Pool.add_authenticator pool ~round:p_block.Block.round
          ~proposer:p_block.Block.proposer ~block_hash:(Block.hash p_block)
          p_authenticator
      in
      Some (c1 || c2 || c3)
  | Message.Notarization_share s -> Some (Pool.add_notarization_share pool s)
  | Message.Notarization c -> Some (Pool.add_notarization pool c)
  | Message.Finalization_share s -> Some (Pool.add_finalization_share pool s)
  | Message.Finalization c -> Some (Pool.add_finalization pool c)
  | Message.Beacon_share { b_round; b_share; _ } ->
      Some (b_round >= 1 && Pool.add_beacon_share pool ~round:b_round b_share)
  | Message.Pool_summary _ | Message.Pool_request _ -> None

let pool_replay system (stream : Icc_core.Message.t array) =
  let once () =
    let pool = Icc_core.Pool.create system in
    let admitted = ref 0 and accepted = ref 0 in
    let t0 = now () in
    Array.iter
      (fun m ->
        match admit pool m with
        | Some gained ->
            incr admitted;
            if gained then incr accepted
        | None -> ())
      stream;
    (now () -. t0, !admitted, !accepted)
  in
  let runs = List.init 3 (fun _ -> once ()) in
  let _, admitted, accepted = List.hd runs in
  let admitted = float_of_int (max 1 admitted) in
  let per = Stats.median (List.map (fun (dt, _, _) -> dt) runs) /. admitted in
  [
    ("pool.admit_us", per *. 1e6);
    ("pool.accept_ratio", float_of_int accepted /. admitted);
  ]

let codec (stream : Icc_core.Message.t array) failures =
  let encoded = Array.map Icc_core.Codec.encode stream in
  check failures "codec decode (encode m) = Some m"
    (Array.for_all2
       (fun m s -> Icc_core.Codec.decode s = Some m)
       stream encoded);
  let bytes = Array.fold_left (fun acc s -> acc + String.length s) 0 encoded in
  (* One operation is a pass over the whole mix. *)
  let pass f xs _ = Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs in
  let enc = per_op ~batches:11 (pass Icc_core.Codec.encode stream) in
  let dec = per_op ~batches:11 (pass Icc_core.Codec.decode encoded) in
  let mb_s per = float_of_int bytes /. per /. 1e6 in
  [ ("codec.encode_mb_s", mb_s enc); ("codec.decode_mb_s", mb_s dec) ]

(* ICC2's reliable broadcast codes a bundle k = t+1 of n and authenticates
   the fragments with a Merkle tree over them. *)
let erasure ~seed ~n ~t ~block_bytes failures =
  let k = t + 1 in
  let data = bytes_of_seed ~seed:(seed + 2) block_bytes in
  let coded = Icc_erasure.Reed_solomon.encode ~k ~n data in
  (* Decode from the last k fragments, all parity when n >= 2k: the full
     reconstruction, not the systematic shortcut. *)
  let fragments = coded.Icc_erasure.Reed_solomon.fragments in
  let frags = List.init k (fun i -> (n - k + i, fragments.(n - k + i))) in
  let decode _ =
    Icc_erasure.Reed_solomon.decode ~k ~n ~data_size:block_bytes frags
  in
  check failures "reed-solomon decode (encode d) = d" (decode () = Some data);
  let leaves = Array.to_list fragments in
  let root = Icc_crypto.Merkle.root_of_leaves leaves in
  check failures "merkle proofs verify"
    (List.for_all
       (fun i ->
         Icc_crypto.Merkle.verify ~root ~leaf:(List.nth leaves i)
           (Icc_crypto.Merkle.prove leaves i))
       (List.init n Fun.id));
  let enc =
    per_op ~batches:11 (fun _ -> Icc_erasure.Reed_solomon.encode ~k ~n data)
  in
  let dec = per_op ~batches:11 decode in
  let prove = per_op (fun i -> Icc_crypto.Merkle.prove leaves (i mod n)) in
  let mb_s per = float_of_int block_bytes /. per /. 1e6 in
  [
    ("erasure.rs_encode_mb_s", mb_s enc);
    ("erasure.rs_decode_mb_s", mb_s dec);
    ("merkle.prove_us", prove *. 1e6);
  ]
