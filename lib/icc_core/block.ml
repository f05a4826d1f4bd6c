(* Blocks and the special root (paper §3.4).

   A round-k block is (block, k, alpha, phash, payload); its hash commits to
   all four fields.  The root is its own notarization and finalization.

   The hash is memoized: [create] computes the digest once and carries it in
   the record, so the ~15 [hash] call sites on the party/pool hot path cost
   a field read instead of an encode + SHA-256. *)

type t = {
  round : Types.round;
  proposer : Types.party_id;
  parent_hash : Icc_crypto.Sha256.t;
  payload : Types.payload;
  digest : Icc_crypto.Sha256.t;
}

let root_hash = Icc_crypto.Sha256.digest_string "icc-root"

let compute_digest ~round ~proposer ~parent_hash ~payload =
  Icc_crypto.Sha256.digest_string
    (Printf.sprintf "block|%d|%d|%s|%s" round proposer
       (Icc_crypto.Sha256.to_hex parent_hash)
       (Icc_crypto.Sha256.to_hex (Types.payload_digest payload)))

let hash (b : t) = b.digest

let create ~round ~proposer ~parent_hash ~payload =
  if round < 1 then invalid_arg "Block.create: rounds start at 1";
  {
    round;
    proposer;
    parent_hash;
    payload;
    digest = compute_digest ~round ~proposer ~parent_hash ~payload;
  }

let is_child_of_root (b : t) =
  b.round = 1 && Icc_crypto.Sha256.equal b.parent_hash root_hash

(* Modeled wire size: fixed header (round, proposer, parent hash, framing)
   plus declared payload bytes. *)
let header_wire_size = 64
let wire_size (b : t) = header_wire_size + Types.payload_size b.payload

let pp fmt (b : t) =
  Format.fprintf fmt "B(k=%d p=%d h=%s)" b.round b.proposer
    (String.sub (Icc_crypto.Sha256.to_hex (hash b)) 0 8)
