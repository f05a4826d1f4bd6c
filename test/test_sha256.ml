(* SHA-256 against the NIST FIPS 180-4 / Cryptographic Algorithm Validation
   Program vectors, plus structural properties. *)

let check_vector name input expected_hex =
  Alcotest.(check string)
    name expected_hex
    (Icc_crypto.Sha256.to_hex (Icc_crypto.Sha256.digest_string input))

let test_nist_vectors () =
  check_vector "empty" ""
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check_vector "abc" "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check_vector "two blocks"
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  check_vector "four blocks"
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"

let test_million_a () =
  check_vector "million a" (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

(* Lengths around the one-block (55/56), block (63/64/65) and two-block
   (111..128) padding boundaries, where the tail-only padding could slip by
   a byte.  Expected digests from coreutils [sha256sum]. *)
let boundary_vectors =
  [
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    (1, "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881");
    (55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072");
    (56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e");
    (63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2");
    (64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
    (65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9");
    (111, "5ba60613dba318e9ed9020301e5dc59c721c19d82862e4d03718708aa75d2bad");
    (112, "87bf6e70ecc829aa717756ac6797b82de8b30fca1281ea1659df31949839fc6b");
    (119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c");
    (120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98");
    (127, "70156a14adbabf98cff3a71c7084b417abf057a8efd27329ca36b7202c87d81f");
    (128, "24da1b81d0b16df6428eee73c69fcb2a93c76bc6df706f0c6670fe6bfe800464");
    (1000, "44f8354494a5ba03ba1792a8d3e9c534c47a9181980fde7a3f44b06ef2ae7c7f");
  ]

let test_boundary_lengths () =
  List.iter
    (fun (len, expected) ->
      check_vector (Printf.sprintf "%d x 'x'" len) (String.make len 'x') expected)
    boundary_vectors;
  (* Three full blocks plus an 8-byte tail, with every byte distinct from
     its neighbours. *)
  check_vector "200 bytes i*7"
    (String.init 200 (fun i -> Char.chr (i * 7 mod 256)))
    "b531abd8dae7232c861ac9f50aff9952d29c8d4c3772551cc5bce5d39d2cd08d"

let test_hex_forms () =
  let d = Icc_crypto.Sha256.digest_string "abc" in
  Alcotest.(check string)
    "short_hex is the to_hex prefix" "ba7816bf8f01"
    (Icc_crypto.Sha256.short_hex d);
  Alcotest.(check string)
    "to_hex of raw bytes"
    (String.concat "" (List.init 32 (fun i -> Printf.sprintf "%02x" (i * 9 mod 256))))
    (Icc_crypto.Sha256.to_hex
       (Icc_crypto.Sha256.of_raw (String.init 32 (fun i -> Char.chr (i * 9 mod 256)))))

let test_bytes_and_string_agree () =
  let s = "internet computer consensus" in
  Alcotest.(check string)
    "agree"
    (Icc_crypto.Sha256.to_hex (Icc_crypto.Sha256.digest_string s))
    (Icc_crypto.Sha256.to_hex (Icc_crypto.Sha256.digest_bytes (Bytes.of_string s)))

let test_to_int61 () =
  let d = Icc_crypto.Sha256.digest_string "x" in
  let v = Icc_crypto.Sha256.to_int61 d in
  Alcotest.(check bool) "in range" true (v >= 0 && v < 1 lsl 61);
  Alcotest.(check int) "deterministic" v
    (Icc_crypto.Sha256.to_int61 (Icc_crypto.Sha256.digest_string "x"))

let prop_deterministic =
  QCheck.Test.make ~name:"sha256 deterministic" ~count:100
    QCheck.string (fun s ->
      Icc_crypto.Sha256.equal
        (Icc_crypto.Sha256.digest_string s)
        (Icc_crypto.Sha256.digest_string s))

let prop_injective_on_sample =
  QCheck.Test.make ~name:"sha256 no collisions on random pairs" ~count:200
    (QCheck.pair QCheck.string QCheck.string) (fun (a, b) ->
      String.equal a b
      || not
           (Icc_crypto.Sha256.equal
              (Icc_crypto.Sha256.digest_string a)
              (Icc_crypto.Sha256.digest_string b)))

let suite =
  [
    Alcotest.test_case "NIST vectors" `Quick test_nist_vectors;
    Alcotest.test_case "million 'a'" `Slow test_million_a;
    Alcotest.test_case "padding boundaries" `Quick test_boundary_lengths;
    Alcotest.test_case "hex forms" `Quick test_hex_forms;
    Alcotest.test_case "bytes/string agree" `Quick test_bytes_and_string_agree;
    Alcotest.test_case "to_int61" `Quick test_to_int61;
    QCheck_alcotest.to_alcotest prop_deterministic;
    QCheck_alcotest.to_alcotest prop_injective_on_sample;
  ]
