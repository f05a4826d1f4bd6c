(* Schnorr signatures over {!Group}; the digital signature scheme S_auth of
   the paper (§2.2).  Nonces are derived deterministically from the secret
   key and message (RFC 6979 style) so signing needs no randomness source.

   Signatures carry the commitment R = g^nonce alongside the classic
   (c, s) pair: the (c, s) form recomputes R = g^s * pk^-c during
   verification, while carrying R turns verification into a hash check
   plus the inversion-free group equation g^s = R * pk^c (DESIGN.md
   §3.10).  R is redundant given (c, s), so modeled wire sizes are
   unchanged. *)

(* The secret key caches its public point: [sign] needs g^sk for the
   challenge hash on every call, and the type is abstract so the cache is
   invisible to clients. *)
type secret_key = { sk : Group.scalar; cached_pk : Group.elt }
type public_key = { pk : Group.elt }

type signature = {
  challenge : Group.scalar;
  response : Group.scalar;
  commitment : Group.elt; (* R = g^nonce, carried *)
}

let make_secret sk = { sk; cached_pk = Group.base_pow sk }

let keygen rand_bits =
  let sk = Group.random_scalar_nonzero rand_bits in
  let key = make_secret sk in
  (key, { pk = key.cached_pk })

let public_key_of_secret { cached_pk; _ } = { pk = cached_pk }

let challenge_hash ~commitment ~pk ~msg =
  Group.scalar_of_hash
    (Sha256.digest_string
       (Printf.sprintf "schnorr|%d|%d|%s" commitment pk msg))

let sign { sk; cached_pk } (msg : string) : signature =
  Icc_obs.Profile.span "crypto.schnorr_sign" @@ fun () ->
  Counters.bump Counters.schnorr_signs;
  let nonce =
    let d = Sha256.digest_string (Printf.sprintf "nonce|%d|%s" sk msg) in
    Group.scalar_of_hash_nonzero ~tag:"schnorr-nonce" d
  in
  let commitment = Group.base_pow nonce in
  let challenge = challenge_hash ~commitment ~pk:cached_pk ~msg in
  let response = Group.scalar_add nonce (Group.scalar_mul challenge sk) in
  { challenge; response; commitment }

(* Verification is the challenge-hash check plus the group equation
   g^s = R * pk^c.  If the equation holds, R is forced into the QR
   subgroup (g^s and pk^c both are), so an attacker-supplied commitment
   needs no separate membership check.  Both bases are long-lived
   (generator, a party public key), so both exponentiations go through
   the fixed-base cache; carrying R means no inversion is needed. *)
let verify { pk } (msg : string) { challenge; response; commitment } : bool =
  Icc_obs.Profile.span "crypto.schnorr_verify" @@ fun () ->
  Counters.bump Counters.schnorr_verifies;
  Group.scalar_equal challenge (challenge_hash ~commitment ~pk ~msg)
  && Group.elt_equal (Group.base_pow response)
       (Group.mul commitment (Group.pow_cached pk challenge))

(* Modeled wire size: production Schnorr/BLS signatures are 48–64 bytes
   (R is recomputable from (c, s), so carrying it is free on the modeled
   wire). *)
let signature_wire_size = 64
