(* Modular arithmetic on native ints for odd moduli below 2^61.

   All values are canonical representatives in [0, m).  Since m < 2^61 and
   OCaml's native int has 63 bits, [a + b] for canonical a, b never wraps,
   so addition-based double-and-add multiplication is exact. *)

let max_modulus_bits = 61

let check_modulus m =
  if m < 3 || m land 1 = 0 || m >= 1 lsl max_modulus_bits then
    invalid_arg "Fp.check_modulus: modulus must be odd, in [3, 2^61)"

let reduce a m =
  let r = a mod m in
  if r < 0 then r + m else r

let add a b m =
  let s = a + b in
  if s >= m then s - m else s

let sub a b m =
  let d = a - b in
  if d < 0 then d + m else d

let neg a m = if a = 0 then 0 else m - a

(* Double-and-add product; O(log b) additions, exact for any m < 2^61.
   Kept as the reference implementation (property tests compare the fast
   path against it) and as the fallback for moduli the fast path cannot
   serve. *)
let mul_generic a b m =
  let rec go acc a b =
    if b = 0 then acc
    else
      let acc = if b land 1 = 1 then add acc a m else acc in
      go acc (add a a m) (b lsr 1)
  in
  if a = 0 || b = 0 then 0 else go 0 a b

(* Fast path: 31-bit-split schoolbook multiplication.

   Write a = a1*2^31 + a0 and b = b1*2^31 + b0.  Then

     a*b = (a1*b1)*2^62 + (a1*b0 + a0*b1)*2^31 + a0*b0

   Each partial product fits a 63-bit native int: a1, b1 < 2^30 and
   a0, b0 < 2^31, so a1*b1 < 2^60, a1*b0 + a0*b1 < 2^62, a0*b0 < 2^62.
   The 2^31 factors are folded in with [shift31], which needs
   d61 = 2^61 mod m to be < 2^29 so that (x >> 30) * d61 stays below
   2^61 for any x < 2^62.  Both protocol moduli qualify (d61 is 2373
   for p and 2374 for q); moduli that don't fall back to the generic
   double-and-add. *)
let mask30 = (1 lsl 30) - 1
let mask31 = (1 lsl 31) - 1

let mul_fast a b m d61 =
  (* x * 2^31 mod m, exact for any x < 2^62 given d61 < 2^29:
     x*2^31 = (x >> 30)*2^61 + (x land mask30)*2^31, and both summands
     stay below 2^61 so their sum never wraps. *)
  let shift31 x = (((x lsr 30) * d61) + ((x land mask30) lsl 31)) mod m in
  let a1 = a lsr 31 and a0 = a land mask31 in
  let b1 = b lsr 31 and b0 = b land mask31 in
  let hi = a1 * b1 in
  let mid = (a1 * b0) + (a0 * b1) in
  let lo = (a0 * b0) mod m in
  add (add (shift31 (shift31 hi)) (shift31 mid) m) lo m

let mul a b m =
  let d61 = (1 lsl 61) mod m in
  if d61 < 1 lsl 29 then mul_fast a b m d61 else mul_generic a b m

let pow base e m =
  if e < 0 then invalid_arg "Fp.pow: negative exponent";
  let rec go acc base e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul acc base m else acc in
      go acc (mul base base m) (e lsr 1)
  in
  go 1 (reduce base m) e

(* Extended Euclid; returns x with a*x = gcd(a,m) (mod m). *)
let inv a m =
  let rec go r0 r1 s0 s1 =
    if r1 = 0 then (r0, s0)
    else
      let q = r0 / r1 in
      go r1 (r0 - (q * r1)) s1 (s0 - (q * s1))
  in
  let a = reduce a m in
  if a = 0 then invalid_arg "Fp.inv: zero has no inverse";
  let g, x = go m a 0 1 in
  if g <> 1 then invalid_arg "Fp.inv: element not invertible";
  reduce x m

let divide a b m = mul a (inv b m) m
