(* Property tests on the pool's promotion cascade.

   The key invariant: classification is a function of the *set* of admitted
   messages, not of their arrival order — the paper's pool semantics (§3.1)
   are declarative, and the event-driven implementation must converge to
   the same fixpoint under any interleaving. *)

let kit = Kit.make ~n:4 ~t:1 ()

(* Build a three-deep certified chain plus an orphan fork, then emit the
   admission steps as first-class operations that can be shuffled. *)
type op = Op of string * (Icc_core.Pool.t -> bool)

let chain_ops () =
  let b1 = Kit.block ~round:1 ~proposer:1 ~parent:None () in
  let b2 = Kit.block ~round:2 ~proposer:2 ~parent:(Some b1) () in
  let b3 = Kit.block ~round:3 ~proposer:3 ~parent:(Some b2) () in
  let fork2 =
    Kit.block
      ~payload:{ Icc_core.Types.commands = []; filler_size = 1 }
      ~round:2 ~proposer:4 ~parent:(Some b1) ()
  in
  let block_ops b =
    [
      Op ( "block", fun pool -> Icc_core.Pool.add_block pool b );
      Op
        ( "auth",
          fun pool ->
            Icc_core.Pool.add_authenticator pool ~round:b.Icc_core.Block.round
              ~proposer:b.Icc_core.Block.proposer
              ~block_hash:(Icc_core.Block.hash b)
              (Kit.authenticator kit b) );
      Op
        ( "cert",
          fun pool ->
            Icc_core.Pool.add_notarization pool
              (Kit.notarization kit b [ 1; 2; 3 ]) );
      Op
        ( "share",
          fun pool ->
            Icc_core.Pool.add_notarization_share pool
              (Kit.notarization_share kit ~signer:4 b) );
    ]
  in
  let final_ops b =
    [
      Op
        ( "final",
          fun pool ->
            Icc_core.Pool.add_finalization pool
              (Kit.finalization kit b [ 1; 2; 4 ]) );
    ]
  in
  ( (b1, b2, b3, fork2),
    block_ops b1 @ block_ops b2 @ block_ops b3 @ block_ops fork2
    @ final_ops b2 )

let classification pool blocks =
  List.map
    (fun b ->
      let key = (b.Icc_core.Block.round, Icc_core.Block.hash b) in
      ( Icc_core.Pool.is_valid pool key,
        Icc_core.Pool.is_notarized pool key,
        Icc_core.Pool.is_finalized pool key,
        Icc_core.Pool.notar_share_count pool key ))
    blocks

(* The answers of the four epoch-cached views over rounds 1..3, rendered
   comparable: block hashes, completion and finalization kinds. *)
let views pool =
  let hex b = Icc_crypto.Sha256.to_hex (Icc_core.Block.hash b) in
  let completion = function
    | None -> "none"
    | Some (Icc_core.Pool.Already_notarized (b, _)) -> "notarized " ^ hex b
    | Some (Icc_core.Pool.Combinable (b, shares)) ->
        Printf.sprintf "combinable %s %d" (hex b) (List.length shares)
  in
  let finalization = function
    | None -> "none"
    | Some (Icc_core.Pool.Final_cert (b, _)) -> "cert " ^ hex b
    | Some (Icc_core.Pool.Final_combinable (b, shares)) ->
        Printf.sprintf "combinable %s %d" (hex b) (List.length shares)
  in
  List.concat_map
    (fun round ->
      [
        String.concat "," (List.map hex (Icc_core.Pool.valid_blocks pool round));
        String.concat ","
          (List.map hex (Icc_core.Pool.notarized_blocks pool round));
        completion (Icc_core.Pool.round_completion pool round);
        finalization (Icc_core.Pool.finalization_step pool ~kmax:(round - 1));
      ])
    [ 1; 2; 3 ]

let prop_order_invariance =
  QCheck.Test.make ~name:"pool classification is admission-order invariant"
    ~count:60 QCheck.int (fun seed ->
      let (b1, b2, b3, fork2), ops = chain_ops () in
      let blocks = [ b1; b2; b3; fork2 ] in
      (* reference: in-order admission *)
      let reference =
        let pool = Icc_core.Pool.create kit.Kit.system in
        List.iter (fun (Op (_, f)) -> ignore (f pool)) ops;
        classification pool blocks
      in
      (* shuffled admission *)
      let rng = Icc_sim.Rng.create seed in
      let arr = Array.of_list ops in
      Icc_sim.Rng.shuffle_in_place rng arr;
      let pool = Icc_core.Pool.create kit.Kit.system in
      Array.iter (fun (Op (_, f)) -> ignore (f pool)) arr;
      (* the same admissions into a pool whose epoch caches are filled
         and invalidated by a query of every view after each one *)
      let warm = Icc_core.Pool.create kit.Kit.system in
      Array.iter
        (fun (Op (_, f)) ->
          ignore (f warm);
          ignore (views warm))
        arr;
      classification pool blocks = reference
      && classification warm blocks = reference
      && views warm = views pool)

let prop_duplicates_are_noops =
  QCheck.Test.make ~name:"pool duplicate admission changes nothing" ~count:30
    QCheck.int (fun seed ->
      let (b1, b2, b3, fork2), ops = chain_ops () in
      let blocks = [ b1; b2; b3; fork2 ] in
      let rng = Icc_sim.Rng.create seed in
      let pool = Icc_core.Pool.create kit.Kit.system in
      List.iter (fun (Op (_, f)) -> ignore (f pool)) ops;
      let before = classification pool blocks in
      (* re-admit a random half again *)
      List.iter
        (fun (Op (_, f)) -> if Icc_sim.Rng.bool rng then ignore (f pool))
        ops;
      classification pool blocks = before)

let prop_monotone =
  QCheck.Test.make ~name:"pool classification is monotone" ~count:30
    QCheck.int (fun seed ->
      let (b1, b2, b3, fork2), ops = chain_ops () in
      let blocks = [ b1; b2; b3; fork2 ] in
      let rng = Icc_sim.Rng.create seed in
      let arr = Array.of_list ops in
      Icc_sim.Rng.shuffle_in_place rng arr;
      let pool = Icc_core.Pool.create kit.Kit.system in
      let stages =
        Array.to_list
          (Array.map
             (fun (Op (_, f)) ->
               ignore (f pool);
               classification pool blocks)
             arr)
      in
      (* each classification bit only ever turns on *)
      let le a b =
        List.for_all2
          (fun (v1, n1, f1, s1) (v2, n2, f2, s2) ->
            (not v1 || v2) && (not n1 || n2) && (not f1 || f2) && s1 <= s2)
          a b
      in
      let rec pairs = function
        | a :: (b :: _ as rest) -> le a b && pairs rest
        | _ -> true
      in
      pairs stages)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_order_invariance;
    QCheck_alcotest.to_alcotest prop_duplicates_are_noops;
    QCheck_alcotest.to_alcotest prop_monotone;
  ]
