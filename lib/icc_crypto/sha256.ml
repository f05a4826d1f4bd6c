(* SHA-256 (FIPS 180-4), pure OCaml.

   Words are native ints holding 32-bit values: every sum, rotation and
   negation is masked back to 32 bits, which relies on OCaml's 63-bit
   native ints (as [Fp] and [Rng.bits61] do) and allocates nothing in the
   compression loop.  Full 64-byte blocks are hashed in place; only the
   last one or two blocks are copied into a padded buffer. *)

type t = string (* 32-byte digest *)

let digest_length = 32

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let initial_state () =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
     0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let mask = 0xffffffff

(* Right rotation of a 32-bit value.  The left shift spills above bit 31;
   each sigma below masks the spill away once, after its three terms. *)
let[@inline] rotr x n = (x lsr n) lor (x lsl (32 - n))

let[@inline] small_sigma0 x = (rotr x 7 lxor rotr x 18 lxor (x lsr 3)) land mask
let[@inline] small_sigma1 x = (rotr x 17 lxor rotr x 19 lxor (x lsr 10)) land mask
let[@inline] big_sigma0 x = (rotr x 2 lxor rotr x 13 lxor rotr x 22) land mask
let[@inline] big_sigma1 x = (rotr x 6 lxor rotr x 11 lxor rotr x 25) land mask

(* Process the 64-byte block at [off] in [msg] into state [h], using [w] as
   the message-schedule scratch. *)
let process_block h w (msg : string) off =
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (String.get_int32_be msg (off + (4 * i))) land mask
  done;
  for i = 16 to 63 do
    w.(i) <-
      (w.(i - 16) + small_sigma0 w.(i - 15) + w.(i - 7) + small_sigma1 w.(i - 2))
      land mask
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let e' = !e and a' = !a in
    let ch = (e' land !f) lxor (lnot e' land mask land !g) in
    let temp1 = !hh + big_sigma1 e' + ch + k.(i) + w.(i) in
    let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := a';
    a := (temp1 + big_sigma0 a' + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let digest_string (input : string) : t =
  Counters.bump Counters.sha256_digests;
  let len = String.length input in
  let h = initial_state () and w = Array.make 64 0 in
  let full = len / 64 in
  for blk = 0 to full - 1 do
    process_block h w input (blk * 64)
  done;
  (* Tail: the remaining bytes ++ 0x80 ++ zeros ++ the 8-byte big-endian
     bit length, in one block if they fit and two otherwise. *)
  let rem = len - (full * 64) in
  let tail_len = if rem < 56 then 64 else 128 in
  let tail = Bytes.make tail_len '\000' in
  Bytes.blit_string input (full * 64) tail 0 rem;
  Bytes.set tail rem '\x80';
  let bitlen = len * 8 in
  for j = 0 to 7 do
    Bytes.set tail (tail_len - 1 - j) (Char.chr ((bitlen lsr (8 * j)) land 0xff))
  done;
  let tail = Bytes.unsafe_to_string tail in
  process_block h w tail 0;
  if tail_len = 128 then process_block h w tail 64;
  String.init digest_length (fun i ->
      Char.chr ((h.(i / 4) lsr (8 * (3 - (i land 3)))) land 0xff))

let digest_bytes (input : Bytes.t) : t = digest_string (Bytes.to_string input)

let hex_digits = "0123456789abcdef"

(* Lowercase hex of the first [nbytes] bytes of [d]. *)
let hex_prefix (d : t) nbytes =
  String.init (2 * nbytes) (fun i ->
      let byte = Char.code d.[i / 2] in
      hex_digits.[if i land 1 = 0 then byte lsr 4 else byte land 0xf])

let to_hex (d : t) = hex_prefix d digest_length

(* First 12 hex chars: the abbreviated digest form used on the trace bus,
   where full 64-char digests would dominate line size. *)
let short_hex (d : t) = hex_prefix d 6

let equal = String.equal
let compare = String.compare

let of_raw s =
  if String.length s <> digest_length then
    invalid_arg "Sha256.of_raw: digests are 32 bytes"
  else s

(* First 61 bits of the digest as a non-negative int; used to derive field
   elements and PRNG seeds from digests. *)
let to_int61 (d : t) =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v land ((1 lsl 61) - 1)

let pp fmt d = Format.pp_print_string fmt (to_hex d)
