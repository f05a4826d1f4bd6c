(** (t, h, n)-threshold signatures by aggregation of individual Schnorr
    signatures — the notarization ([S_notary]) and finalization ([S_final])
    schemes of the paper, used with [h = n - t].

    The paper's §2.3 lists this (approach (i)) as a valid instantiation;
    like BLS multi-signatures (approach (ii)) the combined signature
    identifies its [h] signatories. *)

type params = {
  n : int;
  threshold_h : int;
  public_keys : Schnorr.public_key array;
}

type secret = {
  owner : int;  (** 1-based party index. *)
  key : Schnorr.secret_key;
}

type share = {
  signer : int;
  signature : Schnorr.signature;
}

type signature = {
  signers : int list;
  signatures : Schnorr.signature list;
}

val setup : threshold_h:int -> n:int -> (unit -> int) -> params * secret list
val sign_share : params -> secret -> string -> share

type schnorr_check = Schnorr.public_key -> string -> Schnorr.signature -> bool
(** How each share's signature is checked: {!Schnorr.verify} (the
    default) or a run's memoised {!Verdicts.schnorr}. *)

val verify_share : ?check:schnorr_check -> params -> string -> share -> bool

val combine :
  ?check:schnorr_check -> params -> string -> share list -> signature option
(** [None] when fewer than [threshold_h] distinct valid shares remain after
    filtering invalid and duplicate ones. *)

val verify : ?check:schnorr_check -> params -> string -> signature -> bool

val share_wire_size : int
val signature_wire_size : params -> int
