(* Block, payload and config tests. *)

let test_hash_binds_fields () =
  let kit = Kit.make () in
  ignore kit;
  let b1 = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  let b2 = Kit.block ~round:1 ~proposer:2 ~parent:None () in
  let b3 = Kit.block ~round:2 ~proposer:1 ~parent:(Some b1) () in
  let payload = { Icc_core.Types.commands = []; filler_size = 7 } in
  let b4 = Kit.block ~payload ~round:1 ~proposer:1 ~parent:None () in
  let hashes = List.map Icc_core.Block.hash [ b1; b2; b3; b4 ] in
  Alcotest.(check int)
    "all distinct" 4
    (List.length (List.sort_uniq compare (List.map Icc_crypto.Sha256.to_hex hashes)))

let test_hash_deterministic () =
  let b = Kit.block ~round:3 ~proposer:2 ~parent:None () in
  Alcotest.(check string) "stable"
    (Icc_crypto.Sha256.to_hex (Icc_core.Block.hash b))
    (Icc_crypto.Sha256.to_hex (Icc_core.Block.hash b))

let test_digest_memoization_equivalent () =
  (* The digest stored by [create] must equal the SHA-256 of the block's
     encoding, recomputed here independently of [Block]. *)
  let recompute (b : Icc_core.Block.t) =
    Icc_crypto.Sha256.digest_string
      (Printf.sprintf "block|%d|%d|%s|%s" b.Icc_core.Block.round
         b.Icc_core.Block.proposer
         (Icc_crypto.Sha256.to_hex b.Icc_core.Block.parent_hash)
         (Icc_crypto.Sha256.to_hex
            (Icc_core.Types.payload_digest b.Icc_core.Block.payload)))
  in
  let payload =
    {
      Icc_core.Types.commands =
        [ Icc_core.Types.command ~cmd_id:9 ~cmd_size:40 ~submitted_at:0. () ];
      filler_size = 3;
    }
  in
  let b1 = Kit.block ~round:5 ~proposer:3 ~parent:None () in
  let b2 = Kit.block ~round:6 ~proposer:1 ~parent:(Some b1) () in
  let b3 = Kit.block ~payload ~round:7 ~proposer:2 ~parent:(Some b2) () in
  List.iter
    (fun b ->
      Alcotest.(check string) "hash = sha256 of the encoding"
        (Icc_crypto.Sha256.to_hex (recompute b))
        (Icc_crypto.Sha256.to_hex (Icc_core.Block.hash b)))
    [ b1; b2; b3 ]

let test_round_zero_rejected () =
  Alcotest.check_raises "round 0" (Invalid_argument "Block.create: rounds start at 1")
    (fun () ->
      ignore
        (Icc_core.Block.create ~round:0 ~proposer:1
           ~parent_hash:Icc_core.Block.root_hash
           ~payload:Icc_core.Types.empty_payload))

let test_payload_size () =
  let commands =
    [
      Icc_core.Types.command ~cmd_id:1 ~cmd_size:100 ~submitted_at:0. ();
      Icc_core.Types.command ~cmd_id:2 ~cmd_size:50 ~submitted_at:0. ();
    ]
  in
  let p = { Icc_core.Types.commands; filler_size = 10 } in
  Alcotest.(check int) "sum" 160 (Icc_core.Types.payload_size p);
  Alcotest.(check int) "wire size" (64 + 160)
    (Icc_core.Block.wire_size
       (Kit.block ~payload:p ~round:1 ~proposer:1 ~parent:None ()))

let test_payload_digest_binds_tags () =
  let mk tag =
    {
      Icc_core.Types.commands =
        [ Icc_core.Types.command ~tag ~cmd_id:1 ~cmd_size:8 ~submitted_at:0. () ];
      filler_size = 0;
    }
  in
  Alcotest.(check bool) "tag changes digest" false
    (Icc_crypto.Sha256.equal
       (Icc_core.Types.payload_digest (mk "a"))
       (Icc_core.Types.payload_digest (mk "b")))

let test_config_recommended () =
  let c = Icc_core.Config.recommended ~delta_bnd:0.5 ~epsilon:0.1 ~n:7 ~t:2 () in
  Alcotest.(check (float 1e-9)) "prop 0" 0. (c.Icc_core.Config.delta_prop 0);
  Alcotest.(check (float 1e-9)) "prop 2" 2. (c.Icc_core.Config.delta_prop 2);
  Alcotest.(check (float 1e-9)) "ntry 0" 0.1 (c.Icc_core.Config.delta_ntry 0);
  Alcotest.(check (float 1e-9)) "ntry 1" 1.1 (c.Icc_core.Config.delta_ntry 1);
  Alcotest.(check int) "quorum" 5 (Icc_core.Config.quorum c);
  (* liveness requirement (paper): 2*delta + prop(0) <= ntry(1) *)
  Alcotest.(check bool) "liveness delta<=bnd" true
    (Icc_core.Config.liveness_requirement_holds c ~delta:0.5);
  Alcotest.(check bool) "liveness delta>bnd" false
    (Icc_core.Config.liveness_requirement_holds c ~delta:0.6)

let test_config_rejects_bad_t () =
  Alcotest.check_raises "3t >= n"
    (Invalid_argument "Config.recommended: need 3t < n") (fun () ->
      ignore (Icc_core.Config.recommended ~n:6 ~t:2 ()))

let test_non_responsive_waits () =
  let c = Icc_core.Config.non_responsive ~delta_bnd:1.0 ~n:4 ~t:1 () in
  Alcotest.(check (float 1e-9)) "ntry(0) = delta_bnd" 1.0
    (c.Icc_core.Config.delta_ntry 0)

let prop_delay_functions_nondecreasing =
  QCheck.Test.make ~name:"delay functions non-decreasing" ~count:50
    (QCheck.pair (QCheck.int_range 0 30) (QCheck.int_range 0 30))
    (fun (r1, r2) ->
      let c = Icc_core.Config.recommended ~delta_bnd:0.7 ~epsilon:0.2 ~n:100 ~t:33 () in
      let lo = min r1 r2 and hi = max r1 r2 in
      c.Icc_core.Config.delta_prop lo <= c.Icc_core.Config.delta_prop hi
      && c.Icc_core.Config.delta_ntry lo <= c.Icc_core.Config.delta_ntry hi)

let suite =
  [
    Alcotest.test_case "hash binds fields" `Quick test_hash_binds_fields;
    Alcotest.test_case "hash deterministic" `Quick test_hash_deterministic;
    Alcotest.test_case "digest memoization equivalent" `Quick
      test_digest_memoization_equivalent;
    Alcotest.test_case "round 0 rejected" `Quick test_round_zero_rejected;
    Alcotest.test_case "payload size" `Quick test_payload_size;
    Alcotest.test_case "payload digest tags" `Quick test_payload_digest_binds_tags;
    Alcotest.test_case "config recommended" `Quick test_config_recommended;
    Alcotest.test_case "config bad t" `Quick test_config_rejects_bad_t;
    Alcotest.test_case "non-responsive" `Quick test_non_responsive_waits;
    QCheck_alcotest.to_alcotest prop_delay_functions_nondecreasing;
  ]
