(** Trusted-dealer key generation for all four schemes of an ICC deployment
    (paper §3.2): [S_auth], [S_notary], [S_final], [S_beacon]. *)

type system = {
  n : int;
  t : int;
  auth_pub : Schnorr.public_key array;
  notary : Multisig.params;
  final : Multisig.params;
  beacon : Threshold_vuf.params;
  verdicts : Verdicts.t;
      (** The run's verify-once memo.  Each {!generate} call makes a fresh
          one, shared by every party holding this system. *)
}

type party_keys = {
  index : int;
  auth : Schnorr.secret_key;
  notary_key : Multisig.secret;
  final_key : Multisig.secret;
  beacon_key : Threshold_vuf.secret_share;
}

val max_corrupt : n:int -> int
(** Largest [t] with [3t < n]. *)

val generate : n:int -> t:int -> (unit -> int) -> system * party_keys list
(** Raises [Invalid_argument] unless [3t < n]. *)
