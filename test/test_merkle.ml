(* Merkle tree tests. *)

let leaves n = List.init n (fun i -> Printf.sprintf "fragment-%d" i)

let test_prove_verify_all_sizes () =
  List.iter
    (fun n ->
      let ls = leaves n in
      let root = Icc_crypto.Merkle.root_of_leaves ls in
      List.iteri
        (fun i leaf ->
          let proof = Icc_crypto.Merkle.prove ls i in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d i=%d" n i)
            true
            (Icc_crypto.Merkle.verify ~root ~leaf proof))
        ls)
    [ 1; 2; 3; 4; 5; 7; 8; 13; 16; 31 ]

let test_wrong_leaf_rejected () =
  let ls = leaves 8 in
  let root = Icc_crypto.Merkle.root_of_leaves ls in
  let proof = Icc_crypto.Merkle.prove ls 3 in
  Alcotest.(check bool) "wrong leaf" false
    (Icc_crypto.Merkle.verify ~root ~leaf:"fragment-4" proof)

let test_wrong_position_rejected () =
  let ls = leaves 8 in
  let root = Icc_crypto.Merkle.root_of_leaves ls in
  let proof = Icc_crypto.Merkle.prove ls 3 in
  (* leaf 2's content with leaf 3's proof must fail *)
  Alcotest.(check bool) "wrong position" false
    (Icc_crypto.Merkle.verify ~root ~leaf:"fragment-2" proof)

let test_distinct_roots () =
  let r1 = Icc_crypto.Merkle.root_of_leaves (leaves 4) in
  let r2 = Icc_crypto.Merkle.root_of_leaves ("x" :: leaves 3) in
  Alcotest.(check bool) "distinct" false (Icc_crypto.Sha256.equal r1 r2)

let test_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Merkle.root_of_leaves: empty")
    (fun () -> ignore (Icc_crypto.Merkle.root_of_leaves []))

let test_out_of_range () =
  Alcotest.check_raises "range" (Invalid_argument "Merkle.prove: index out of range")
    (fun () -> ignore (Icc_crypto.Merkle.prove (leaves 3) 3))

let flip_bit (d : Icc_crypto.Sha256.t) =
  let raw = Bytes.of_string (d :> string) in
  Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) lxor 1));
  Icc_crypto.Sha256.of_raw (Bytes.to_string raw)

(* The proof with its lowest sibling corrupted; [None] if it has none. *)
let rec flip_first_sibling : Icc_crypto.Merkle.proof -> _ = function
  | [] -> None
  | ({ sibling = Some s; _ } as step) :: rest ->
      Some ({ step with sibling = Some (flip_bit s) } :: rest)
  | step :: rest -> Option.map (List.cons step) (flip_first_sibling rest)

(* [prove_all] reads every proof off one tree; it must agree with the
   per-leaf [root_of_leaves] / [prove] at every size, odd promotions
   included. *)
let test_prove_all_matches_prove () =
  for n = 1 to 40 do
    let ls = leaves n in
    let root, proofs = Icc_crypto.Merkle.prove_all ls in
    Alcotest.(check string)
      (Printf.sprintf "n=%d root" n)
      (Icc_crypto.Sha256.to_hex (Icc_crypto.Merkle.root_of_leaves ls))
      (Icc_crypto.Sha256.to_hex root);
    Alcotest.(check int) (Printf.sprintf "n=%d proof count" n) n
      (Array.length proofs);
    List.iteri
      (fun i leaf ->
        let name = Printf.sprintf "n=%d i=%d" n i in
        Alcotest.(check bool)
          (name ^ " = prove") true
          (proofs.(i) = Icc_crypto.Merkle.prove ls i);
        Alcotest.(check bool)
          (name ^ " verifies") true
          (Icc_crypto.Merkle.verify ~root ~leaf proofs.(i));
        match flip_first_sibling proofs.(i) with
        | None -> Alcotest.(check int) (name ^ " no sibling only at n=1") 1 n
        | Some bad ->
            Alcotest.(check bool)
              (name ^ " flipped sibling rejected") false
              (Icc_crypto.Merkle.verify ~root ~leaf bad))
      ls
  done

let test_prove_all_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Merkle.prove_all: empty")
    (fun () -> ignore (Icc_crypto.Merkle.prove_all []))

let prop_roundtrip =
  QCheck.Test.make ~name:"merkle roundtrip" ~count:60
    (QCheck.pair (QCheck.int_range 1 40) QCheck.small_string) (fun (n, salt) ->
      let ls = List.init n (fun i -> Printf.sprintf "%s-%d" salt i) in
      let root = Icc_crypto.Merkle.root_of_leaves ls in
      List.for_all
        (fun i ->
          Icc_crypto.Merkle.verify ~root ~leaf:(List.nth ls i)
            (Icc_crypto.Merkle.prove ls i))
        (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "prove/verify sizes" `Quick test_prove_verify_all_sizes;
    Alcotest.test_case "wrong leaf" `Quick test_wrong_leaf_rejected;
    Alcotest.test_case "wrong position" `Quick test_wrong_position_rejected;
    Alcotest.test_case "distinct roots" `Quick test_distinct_roots;
    Alcotest.test_case "empty" `Quick test_empty_rejected;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "prove_all = prove" `Quick test_prove_all_matches_prove;
    Alcotest.test_case "prove_all empty" `Quick test_prove_all_empty;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
