(* Merkle trees over SHA-256, used to authenticate erasure-code fragments in
   the ICC2 reliable-broadcast subprotocol.

   Leaves and internal nodes use distinct domain separators so a leaf can
   never be reinterpreted as an internal node.  Odd nodes are promoted
   unpaired to the next level (no duplication). *)

type proof_step = { sibling : Sha256.t option; left : bool }
(* [left = true] means the running hash is the left child at this level;
   [sibling = None] records an unpaired promotion. *)

type proof = proof_step list

let leaf_hash data = Sha256.digest_string ("leaf|" ^ data)

let node_hash l r =
  Sha256.digest_string ("node|" ^ (l : Sha256.t :> string) ^ (r : Sha256.t :> string))

(* The tree bottom-up: [levels.(0)] holds the leaf hashes and the last
   level the root alone.  Every tree operation reads off this one build. *)
let levels ~who (leaves : string list) : Sha256.t array array =
  if leaves = [] then invalid_arg (who ^ ": empty");
  let rec up acc level =
    let len = Array.length level in
    if len = 1 then Array.of_list (List.rev (level :: acc))
    else
      up (level :: acc)
        (Array.init ((len + 1) / 2) (fun j ->
             if (2 * j) + 1 < len then node_hash level.(2 * j) level.((2 * j) + 1)
             else level.(2 * j)))
  in
  up [] (Array.of_list (List.map leaf_hash leaves))

let root_of_levels lv = lv.(Array.length lv - 1).(0)

let proof_of_levels lv index : proof =
  List.init
    (Array.length lv - 1)
    (fun depth ->
      let level = lv.(depth) and pos = index lsr depth in
      if pos land 1 = 0 then
        {
          sibling =
            (if pos + 1 < Array.length level then Some level.(pos + 1) else None);
          left = true;
        }
      else { sibling = Some level.(pos - 1); left = false })

let root_of_leaves leaves =
  root_of_levels (levels ~who:"Merkle.root_of_leaves" leaves)

let prove (leaves : string list) (index : int) : proof =
  if index < 0 || index >= List.length leaves then
    invalid_arg "Merkle.prove: index out of range";
  proof_of_levels (levels ~who:"Merkle.prove" leaves) index

let prove_all (leaves : string list) : Sha256.t * proof array =
  let lv = levels ~who:"Merkle.prove_all" leaves in
  (root_of_levels lv, Array.init (Array.length lv.(0)) (proof_of_levels lv))

let verify ~root ~leaf (proof : proof) : bool =
  let final =
    List.fold_left
      (fun h { sibling; left } ->
        match (sibling, left) with
        | Some s, true -> node_hash h s
        | Some s, false -> node_hash s h
        | None, _ -> h)
      (leaf_hash leaf) proof
  in
  Sha256.equal final root

(* Modeled wire size of a proof for an n-leaf tree: 32 bytes per level. *)
let proof_wire_size ~n_leaves =
  let rec levels n acc = if n <= 1 then acc else levels ((n + 1) / 2) (acc + 1) in
  32 * levels n_leaves 0
