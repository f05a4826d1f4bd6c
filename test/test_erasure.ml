(* GF(256), matrix and Reed–Solomon tests. *)

let rng = Icc_sim.Rng.create 0x8f

let test_gf_tables () =
  Alcotest.(check int) "1*1" 1 (Icc_erasure.Gf256.mul 1 1);
  Alcotest.(check int) "a*0" 0 (Icc_erasure.Gf256.mul 77 0);
  Alcotest.(check int) "2*2" 4 (Icc_erasure.Gf256.mul 2 2);
  (* AES reduction: 0x80 * 2 = 0x1b *)
  Alcotest.(check int) "0x80*2" 0x1b (Icc_erasure.Gf256.mul 0x80 2);
  Alcotest.(check int) "known product" 0xc1 (Icc_erasure.Gf256.mul 0x57 0x83)

let test_gf_inverses () =
  for a = 1 to 255 do
    Alcotest.(check int)
      (Printf.sprintf "inv %d" a)
      1
      (Icc_erasure.Gf256.mul a (Icc_erasure.Gf256.inv a))
  done

let test_gf_mul_add_into () =
  (* Every coefficient against every byte, at an offset into both sides. *)
  let src = String.init 258 (fun i -> Char.chr ((i + 254) land 0xff)) in
  for c = 0 to 255 do
    let dst = Bytes.init 260 (fun i -> Char.chr ((i * 37) land 0xff)) in
    let before = Bytes.to_string dst in
    Icc_erasure.Gf256.mul_add_into c src 2 dst 3 256;
    for i = 0 to 259 do
      let expected =
        if i < 3 || i >= 259 then Char.code before.[i]
        else
          Icc_erasure.Gf256.add (Char.code before.[i])
            (Icc_erasure.Gf256.mul c (Char.code src.[i - 1]))
      in
      if Char.code (Bytes.get dst i) <> expected then
        Alcotest.failf "c=%d byte %d: %d <> %d" c i
          (Char.code (Bytes.get dst i)) expected
    done
  done

let prop_gf_field_axioms =
  QCheck.Test.make ~name:"gf256 field axioms" ~count:300
    (QCheck.triple (QCheck.int_bound 255) (QCheck.int_bound 255)
       (QCheck.int_bound 255)) (fun (a, b, c) ->
      let open Icc_erasure.Gf256 in
      mul a (mul b c) = mul (mul a b) c
      && mul a b = mul b a
      && mul a (add b c) = add (mul a b) (mul a c)
      && add (add a b) b = a)

let test_matrix_invert_roundtrip () =
  let points = [| 1; 2; 3; 4; 5 |] in
  let v = Icc_erasure.Matrix.vandermonde ~points ~cols:5 in
  let vi = Icc_erasure.Matrix.invert v in
  let prod = Icc_erasure.Matrix.mul v vi in
  let id = Icc_erasure.Matrix.identity 5 in
  Alcotest.(check bool) "V * V^-1 = I" true (prod = id)

let test_matrix_singular () =
  let m = [| [| 1; 2 |]; [| 1; 2 |] |] in
  Alcotest.check_raises "singular" Icc_erasure.Matrix.Singular (fun () ->
      ignore (Icc_erasure.Matrix.invert m))

let random_string len =
  String.init len (fun _ -> Char.chr (Icc_sim.Rng.int rng 256))

let test_rs_systematic_roundtrip () =
  let data = random_string 1000 in
  let coded = Icc_erasure.Reed_solomon.encode ~k:3 ~n:9 data in
  Alcotest.(check int) "9 fragments" 9
    (Array.length coded.Icc_erasure.Reed_solomon.fragments);
  (* systematic: fragments 0..k-1 concatenate back to the (padded) data *)
  let rebuilt =
    String.concat ""
      [
        coded.Icc_erasure.Reed_solomon.fragments.(0);
        coded.Icc_erasure.Reed_solomon.fragments.(1);
        coded.Icc_erasure.Reed_solomon.fragments.(2);
      ]
  in
  Alcotest.(check string) "systematic prefix" data (String.sub rebuilt 0 1000)

let test_rs_decode_any_subset () =
  let data = random_string 500 in
  let k = 3 and n = 7 in
  let coded = Icc_erasure.Reed_solomon.encode ~k ~n data in
  let frag i = (i, coded.Icc_erasure.Reed_solomon.fragments.(i)) in
  List.iter
    (fun idxs ->
      match
        Icc_erasure.Reed_solomon.decode ~k ~n ~data_size:500
          (List.map frag idxs)
      with
      | Some d ->
          Alcotest.(check string)
            (Printf.sprintf "subset %s"
               (String.concat "," (List.map string_of_int idxs)))
            data d
      | None -> Alcotest.fail "decode failed")
    [ [ 0; 1; 2 ]; [ 4; 5; 6 ]; [ 0; 3; 6 ]; [ 2; 4; 5 ]; [ 6; 1; 3 ] ]

let test_rs_too_few_fragments () =
  let data = random_string 100 in
  let coded = Icc_erasure.Reed_solomon.encode ~k:3 ~n:5 data in
  let frag i = (i, coded.Icc_erasure.Reed_solomon.fragments.(i)) in
  Alcotest.(check bool) "2 < k" true
    (Icc_erasure.Reed_solomon.decode ~k:3 ~n:5 ~data_size:100 [ frag 0; frag 4 ]
    = None)

let test_rs_duplicate_fragments_dont_count () =
  let data = random_string 100 in
  let coded = Icc_erasure.Reed_solomon.encode ~k:3 ~n:5 data in
  let frag i = (i, coded.Icc_erasure.Reed_solomon.fragments.(i)) in
  Alcotest.(check bool) "dups filtered" true
    (Icc_erasure.Reed_solomon.decode ~k:3 ~n:5 ~data_size:100
       [ frag 0; frag 0; frag 0; frag 1 ]
    = None)

let test_rs_reencode_check () =
  let data = random_string 300 in
  let coded = Icc_erasure.Reed_solomon.encode ~k:2 ~n:6 data in
  let frag i = (i, coded.Icc_erasure.Reed_solomon.fragments.(i)) in
  Alcotest.(check bool) "consistent" true
    (Icc_erasure.Reed_solomon.reencode_matches ~k:2 ~n:6 ~data
       [ frag 0; frag 3; frag 5 ]);
  let corrupted = (3, String.map (fun c -> Char.chr (Char.code c lxor 1))
                       coded.Icc_erasure.Reed_solomon.fragments.(3)) in
  Alcotest.(check bool) "corruption detected" false
    (Icc_erasure.Reed_solomon.reencode_matches ~k:2 ~n:6 ~data
       [ frag 0; corrupted ])

let prop_rs_roundtrip =
  QCheck.Test.make ~name:"reed-solomon roundtrip" ~count:40
    (QCheck.pair (QCheck.int_range 1 5) (QCheck.int_range 0 400))
    (fun (t, len) ->
      let k = t + 1 and n = (3 * t) + 1 in
      let data = random_string len in
      let coded = Icc_erasure.Reed_solomon.encode ~k ~n data in
      (* drop t random fragments, decode from the rest *)
      let all = Array.to_list (Array.mapi (fun i f -> (i, f)) coded.Icc_erasure.Reed_solomon.fragments) in
      let arr = Array.of_list all in
      Icc_sim.Rng.shuffle_in_place rng arr;
      let kept = Array.to_list (Array.sub arr 0 (n - t)) in
      match Icc_erasure.Reed_solomon.decode ~k ~n ~data_size:len kept with
      | Some d -> String.equal d data
      | None -> false)

(* Scalar reference for the row kernels: the per-byte-position loop the
   coder used to run, one [Matrix.mul_vec] (hence [Gf256.mul]) per byte
   column.  Lives here only, as an oracle. *)
let ref_matrix ~k ~n =
  let v =
    Icc_erasure.Matrix.vandermonde ~points:(Array.init n (fun i -> i + 1)) ~cols:k
  in
  Icc_erasure.Matrix.mul v (Icc_erasure.Matrix.invert (Array.sub v 0 k))

let ref_encode ~k ~n data =
  let len = String.length data in
  let fs = max ((len + k - 1) / k) 1 in
  let e = ref_matrix ~k ~n in
  let columns =
    Array.init fs (fun pos ->
        Icc_erasure.Matrix.mul_vec e
          (Array.init k (fun j ->
               let idx = (j * fs) + pos in
               if idx < len then Char.code data.[idx] else 0)))
  in
  Array.init n (fun i -> String.init fs (fun pos -> Char.chr columns.(pos).(i)))

(* [chosen] holds exactly k distinct fragments. *)
let ref_decode ~k ~n ~data_size chosen =
  let chosen = List.sort compare chosen in
  let fs = max ((data_size + k - 1) / k) 1 in
  let e = ref_matrix ~k ~n in
  let inv =
    Icc_erasure.Matrix.invert (Array.of_list (List.map (fun (i, _) -> e.(i)) chosen))
  in
  let frags = Array.of_list (List.map snd chosen) in
  let out = Bytes.create (fs * k) in
  for pos = 0 to fs - 1 do
    let col =
      Icc_erasure.Matrix.mul_vec inv (Array.init k (fun r -> Char.code frags.(r).[pos]))
    in
    Array.iteri (fun j b -> Bytes.set out ((j * fs) + pos) (Char.chr b)) col
  done;
  Bytes.sub_string out 0 data_size

(* Data sizes 0, 1, a non-multiple of k, and an arbitrary one. *)
let gen_rs_case =
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let* k = int_range 1 n in
    let* size =
      oneof
        [
          return 0;
          return 1;
          map2 (fun m r -> (m * k) + r) (int_range 0 12) (int_range 1 (max 1 (k - 1)));
          int_range 0 600;
        ]
    in
    let* seed = int_bound 0xffff in
    return (k, n, size, seed))

let prop_rs_matches_scalar_reference =
  QCheck.Test.make ~name:"reed-solomon = scalar reference" ~count:150
    (QCheck.make
       ~print:(fun (k, n, size, seed) ->
         Printf.sprintf "k=%d n=%d size=%d seed=%d" k n size seed)
       gen_rs_case)
    (fun (k, n, size, seed) ->
      let r = Icc_sim.Rng.create seed in
      let data = String.init size (fun _ -> Char.chr (Icc_sim.Rng.int r 256)) in
      let coded = Icc_erasure.Reed_solomon.encode ~k ~n data in
      let frags = coded.Icc_erasure.Reed_solomon.fragments in
      let decodes_from idxs =
        let chosen = List.map (fun i -> (i, frags.(i))) idxs in
        let got = Icc_erasure.Reed_solomon.decode ~k ~n ~data_size:size chosen in
        got = Some (ref_decode ~k ~n ~data_size:size chosen) && got = Some data
      in
      let shuffled = Array.init n Fun.id in
      Icc_sim.Rng.shuffle_in_place r shuffled;
      (* A random (generally mixed) subset, and parity only when n >= 2k. *)
      let mixed = Array.to_list (Array.sub shuffled 0 k) in
      let parity_only = List.init k (fun i -> n - k + i) in
      frags = ref_encode ~k ~n data
      && decodes_from mixed
      && ((n < 2 * k) || decodes_from parity_only))

let test_rs_bad_params () =
  Alcotest.check_raises "k > n"
    (Invalid_argument "Reed_solomon.encode: need 1 <= k <= n <= 255")
    (fun () -> ignore (Icc_erasure.Reed_solomon.encode ~k:5 ~n:4 "x"))

let suite =
  [
    Alcotest.test_case "gf tables" `Quick test_gf_tables;
    Alcotest.test_case "gf inverses" `Quick test_gf_inverses;
    Alcotest.test_case "gf mul_add_into" `Quick test_gf_mul_add_into;
    QCheck_alcotest.to_alcotest prop_gf_field_axioms;
    Alcotest.test_case "matrix invert" `Quick test_matrix_invert_roundtrip;
    Alcotest.test_case "matrix singular" `Quick test_matrix_singular;
    Alcotest.test_case "rs systematic" `Quick test_rs_systematic_roundtrip;
    Alcotest.test_case "rs any subset" `Quick test_rs_decode_any_subset;
    Alcotest.test_case "rs too few" `Quick test_rs_too_few_fragments;
    Alcotest.test_case "rs duplicates" `Quick test_rs_duplicate_fragments_dont_count;
    Alcotest.test_case "rs reencode check" `Quick test_rs_reencode_check;
    QCheck_alcotest.to_alcotest prop_rs_roundtrip;
    QCheck_alcotest.to_alcotest prop_rs_matches_scalar_reference;
    Alcotest.test_case "rs bad params" `Quick test_rs_bad_params;
  ]
