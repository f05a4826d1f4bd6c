(* GF(2^8) arithmetic with the AES polynomial x^8+x^4+x^3+x+1 (0x11b),
   via log/antilog tables over the generator 3. *)

let order = 256

let exp_table = Array.make 512 0
let log_table = Array.make 256 0

let () =
  (* Build tables by repeated multiplication by the generator 0x03:
     x*3 = x*2 xor x, where x*2 is a shift with conditional reduction. *)
  let x = ref 1 in
  for i = 0 to 254 do
    exp_table.(i) <- !x;
    log_table.(!x) <- i;
    let x2 = !x lsl 1 in
    let x2 = if x2 land 0x100 <> 0 then x2 lxor 0x11b else x2 in
    x := x2 lxor !x
  done;
  (* duplicate for index arithmetic without mod *)
  for i = 255 to 511 do
    exp_table.(i) <- exp_table.(i - 255)
  done

let check v =
  if v < 0 || v > 255 then invalid_arg "Gf256: value out of range"

let add a b = a lxor b
let sub = add

let mul a b =
  if a = 0 || b = 0 then 0 else exp_table.(log_table.(a) + log_table.(b))

let inv a =
  if a = 0 then invalid_arg "Gf256.inv: zero" else exp_table.(255 - log_table.(a))

let div a b = if a = 0 then 0 else mul a (inv b)

(* [mul_table.[(a lsl 8) lor b]] is [mul a b]: 64 KiB, built once and
   never written, so the bulk kernel below is one load per byte with no
   zero test. *)
let mul_table = String.init 65536 (fun i -> Char.chr (mul (i lsr 8) (i land 0xff)))

(* dst[dst_off + i] <- dst[dst_off + i] + c * src[src_off + i] for i < len:
   one row step of a matrix product over byte strings.  The xor of two
   bytes is a byte, so [Char.unsafe_chr] is exact; [Char.chr] would be an
   out-of-line call per byte that spills the loop's registers. *)
let mul_add_into c (src : string) src_off (dst : Bytes.t) dst_off len =
  if c <> 0 then begin
    let row = c lsl 8 in
    for i = 0 to len - 1 do
      let s = Char.code src.[src_off + i] in
      let d = Char.code (Bytes.get dst (dst_off + i)) in
      Bytes.set dst (dst_off + i)
        (Char.unsafe_chr (d lxor Char.code mul_table.[row lor s]))
    done
  end

let pow a e =
  if e < 0 then invalid_arg "Gf256.pow: negative exponent"
  else if a = 0 then if e = 0 then 1 else 0
  else exp_table.(log_table.(a) * e mod 255)
