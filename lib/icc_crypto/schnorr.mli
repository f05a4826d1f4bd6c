(** Schnorr signatures over {!Group}: the ordinary digital signature scheme
    [S_auth] used to authenticate block proposals (paper §2.2, §3.2).

    Deterministic (derandomised) signing: the nonce is derived from the
    secret key and the message, so equal inputs yield equal signatures. *)

type secret_key
type public_key = { pk : Group.elt }

type signature = {
  challenge : Group.scalar;
  response : Group.scalar;
  commitment : Group.elt;
      (** [R = g^nonce].  Redundant given [(challenge, response)] — the
          classic form recomputes it — but carrying it makes
          verification inversion-free.  Modeled wire sizes are
          unchanged. *)
}

val keygen : (unit -> int) -> secret_key * public_key
(** [keygen rand_bits] draws a fresh key pair from a source of uniform
    61-bit non-negative ints. *)

val public_key_of_secret : secret_key -> public_key
val sign : secret_key -> string -> signature
val verify : public_key -> string -> signature -> bool

val signature_wire_size : int
(** Modeled production wire size in bytes, used by traffic accounting. *)
