(** Merkle trees over SHA-256, authenticating erasure-code fragments in the
    ICC2 reliable-broadcast subprotocol. *)

type proof_step = { sibling : Sha256.t option; left : bool }
type proof = proof_step list

val leaf_hash : string -> Sha256.t
val root_of_leaves : string list -> Sha256.t

val prove : string list -> int -> proof
(** [prove leaves index] builds the inclusion proof for [List.nth leaves
    index].  Raises [Invalid_argument] on an out-of-range index. *)

val prove_all : string list -> Sha256.t * proof array
(** [prove_all leaves] is the root and every leaf's inclusion proof, read
    off one tree: [(root_of_leaves leaves, [| prove leaves 0; ...|])] at the
    hashing cost of [root_of_leaves] alone.  Raises [Invalid_argument] on
    an empty list. *)

val verify : root:Sha256.t -> leaf:string -> proof -> bool

val proof_wire_size : n_leaves:int -> int
(** Modeled wire size in bytes (32 per tree level). *)
