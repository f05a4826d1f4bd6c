(* Binary wire codec for {!Message.t}.

   A deterministic, explicit, *compact* format — this is what the
   erasure-coded reliable broadcast of ICC2 fragments and reassembles, so
   decoding must be safe on adversarial bytes: every read is bounds-checked
   and failures surface as [None], never as an exception or unsafe value.

   Layout: integers travel as LEB128 varints of their 64-bit two's
   complement (1 byte for values < 128 — rounds, party ids, counts, share
   signer ids — up to 10 bytes for huge or negative values, which honest
   encoders never produce); strings and lists are preceded by a varint
   length/count; digests are 32 raw bytes; floats are their raw IEEE-754
   bits in 8 fixed little-endian bytes (converting through the 63-bit
   native int would corrupt bit 63 by sign extension); each message starts
   with a one-byte interned variant tag.  Shared-prefix digests are elided:
   a proposal's parent certificate names the same digest as the block's
   parent hash, so a well-formed bundle writes it once (a distinct presence
   marker keeps the rare mismatched bundle encodable verbatim). *)

exception Malformed

(* --- writer ------------------------------------------------------------ *)

let w_byte buf b = Buffer.add_char buf (Char.chr (b land 0xff))

(* Unsigned LEB128 over the two's-complement bits. *)
let w_varint64 buf n =
  let v = ref n in
  let continue = ref true in
  while !continue do
    let low = Int64.to_int (Int64.logand !v 0x7fL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then begin
      Buffer.add_char buf (Char.chr low);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (low lor 0x80))
  done

let w_int buf n = w_varint64 buf (Int64.of_int n)

(* Floats travel as raw IEEE-754 bits, fixed width: varint-packing the
   mantissa-heavy bit pattern would usually *grow* it. *)
let w_float buf f =
  let v = ref (Int64.bits_of_float f) in
  for _ = 0 to 7 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.logand !v 0xffL)));
    v := Int64.shift_right_logical !v 8
  done

let w_str buf s =
  w_int buf (String.length s);
  Buffer.add_string buf s

let w_digest buf (d : Icc_crypto.Sha256.t) =
  Buffer.add_string buf (d :> string)

let w_list buf w l =
  w_int buf (List.length l);
  List.iter (w buf) l

(* --- reader ------------------------------------------------------------ *)

type cursor = { data : string; mutable pos : int }

let need c k = if c.pos + k > String.length c.data then raise Malformed

let r_byte c =
  need c 1;
  let b = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  b

let r_varint64 c =
  let v = ref 0L in
  let shift = ref 0 in
  let continue = ref true in
  while !continue do
    if !shift > 63 then raise Malformed;
    let b = r_byte c in
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (b land 0x7f)) !shift);
    if b land 0x80 = 0 then begin
      (* reject non-canonical trailing zero groups ("0x80 0x00"-style
         padding), so every value has exactly one encoding *)
      if b = 0 && !shift > 0 then raise Malformed;
      continue := false
    end
    else shift := !shift + 7
  done;
  !v

let r_int c = Int64.to_int (r_varint64 c)

let r_float c =
  need c 8;
  let v = ref 0L in
  for i = 7 downto 0 do
    v :=
      Int64.logor
        (Int64.shift_left !v 8)
        (Int64.of_int (Char.code c.data.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  Int64.float_of_bits !v

let r_str c =
  let len = r_int c in
  if len < 0 then raise Malformed;
  need c len;
  let s = String.sub c.data c.pos len in
  c.pos <- c.pos + len;
  s

let r_digest c =
  need c 32;
  let s = String.sub c.data c.pos 32 in
  c.pos <- c.pos + 32;
  Icc_crypto.Sha256.of_raw s

let r_list c r =
  let count = r_int c in
  if count < 0 || count > 10_000_000 then raise Malformed;
  List.init count (fun _ -> r c)

(* --- domain encoders ---------------------------------------------------- *)

(* The commitment is carried on the simulated wire so receivers can
   batch-verify; the *modeled* wire size stays [signature_wire_size]
   (production verifiers recompute R from (c, s) when checking singly,
   and a batch-friendly encoding replaces c by R at equal size). *)
let w_schnorr buf (s : Icc_crypto.Schnorr.signature) =
  w_int buf s.Icc_crypto.Schnorr.challenge;
  w_int buf s.Icc_crypto.Schnorr.response;
  w_int buf s.Icc_crypto.Schnorr.commitment

let r_schnorr c : Icc_crypto.Schnorr.signature =
  let challenge = r_int c in
  let response = r_int c in
  let commitment = r_int c in
  { challenge; response; commitment }

let w_ms_share buf (s : Icc_crypto.Multisig.share) =
  w_int buf s.Icc_crypto.Multisig.signer;
  w_schnorr buf s.Icc_crypto.Multisig.signature

let r_ms_share c : Icc_crypto.Multisig.share =
  let signer = r_int c in
  let signature = r_schnorr c in
  { signer; signature }

let w_multisig buf (m : Icc_crypto.Multisig.signature) =
  w_list buf w_int m.Icc_crypto.Multisig.signers;
  w_list buf w_schnorr m.Icc_crypto.Multisig.signatures

let r_multisig c : Icc_crypto.Multisig.signature =
  let signers = r_list c r_int in
  let signatures = r_list c r_schnorr in
  { signers; signatures }

(* A certificate, with its digest optionally elided when the container
   already carries it (the proposal parent-certificate case). *)
let w_cert_body buf ~with_digest (cert : Types.cert) =
  w_int buf cert.Types.c_round;
  w_int buf cert.Types.c_proposer;
  if with_digest then w_digest buf cert.Types.c_block_hash;
  w_multisig buf cert.Types.c_multisig

let r_cert_body c ~digest : Types.cert =
  let c_round = r_int c in
  let c_proposer = r_int c in
  let c_block_hash = match digest with Some d -> d | None -> r_digest c in
  let c_multisig = r_multisig c in
  { c_round; c_proposer; c_block_hash; c_multisig }

let w_cert buf cert = w_cert_body buf ~with_digest:true cert
let r_cert c = r_cert_body c ~digest:None

let w_share_msg buf (s : Types.share_msg) =
  w_int buf s.Types.s_round;
  w_int buf s.Types.s_proposer;
  w_digest buf s.Types.s_block_hash;
  w_ms_share buf s.Types.s_share

let r_share_msg c : Types.share_msg =
  let s_round = r_int c in
  let s_proposer = r_int c in
  let s_block_hash = r_digest c in
  let s_share = r_ms_share c in
  { s_round; s_proposer; s_block_hash; s_share }

let w_command buf (cmd : Types.command) =
  w_int buf cmd.Types.cmd_id;
  w_int buf cmd.Types.cmd_size;
  w_float buf cmd.Types.submitted_at;
  w_str buf cmd.Types.tag

let r_command c : Types.command =
  let cmd_id = r_int c in
  let cmd_size = r_int c in
  let submitted_at = r_float c in
  let tag = r_str c in
  { cmd_id; cmd_size; submitted_at; tag }

let w_block buf (b : Block.t) =
  w_int buf b.Block.round;
  w_int buf b.Block.proposer;
  w_digest buf b.Block.parent_hash;
  w_int buf b.Block.payload.Types.filler_size;
  w_list buf w_command b.Block.payload.Types.commands

let r_block c : Block.t =
  let round = r_int c in
  let proposer = r_int c in
  let parent_hash = r_digest c in
  let filler_size = r_int c in
  let commands = r_list c r_command in
  if round < 1 then raise Malformed;
  Block.create ~round ~proposer ~parent_hash
    ~payload:{ Types.commands; filler_size }

let w_vuf_share buf (s : Icc_crypto.Threshold_vuf.signature_share) =
  w_int buf s.Icc_crypto.Threshold_vuf.signer;
  w_int buf s.Icc_crypto.Threshold_vuf.value;
  w_int buf s.Icc_crypto.Threshold_vuf.proof.Icc_crypto.Dleq.challenge;
  w_int buf s.Icc_crypto.Threshold_vuf.proof.Icc_crypto.Dleq.response;
  (* Carried commitments, as with [w_schnorr]; modeled share size is
     unchanged. *)
  w_int buf s.Icc_crypto.Threshold_vuf.proof.Icc_crypto.Dleq.commit1;
  w_int buf s.Icc_crypto.Threshold_vuf.proof.Icc_crypto.Dleq.commit2

let r_vuf_share c : Icc_crypto.Threshold_vuf.signature_share =
  let signer = r_int c in
  let value = r_int c in
  let challenge = r_int c in
  let response = r_int c in
  let commit1 = r_int c in
  let commit2 = r_int c in
  { signer; value; proof = { challenge; response; commit1; commit2 } }

(* --- top level ----------------------------------------------------------- *)

let tag_proposal = 1
let tag_notar_share = 2
let tag_notarization = 3
let tag_final_share = 4
let tag_finalization = 5
let tag_beacon_share = 6
let tag_pool_summary = 7
let tag_pool_request = 8

(* Parent-certificate presence markers inside a proposal. *)
let parent_none = 0
let parent_full = 1 (* digest differs from the block's parent hash *)
let parent_elided = 2 (* digest = block.parent_hash, written once *)

let encode (msg : Message.t) : string =
  Icc_obs.Profile.span "codec.encode" @@ fun () ->
  let buf = Buffer.create 256 in
  (match msg with
  | Message.Proposal p ->
      w_byte buf tag_proposal;
      w_block buf p.Message.p_block;
      w_schnorr buf p.Message.p_authenticator;
      (match p.Message.p_parent_cert with
      | None -> w_byte buf parent_none
      | Some cert ->
          if
            Icc_crypto.Sha256.equal cert.Types.c_block_hash
              p.Message.p_block.Block.parent_hash
          then begin
            (* the well-formed case: parent digest is a shared prefix *)
            w_byte buf parent_elided;
            w_cert_body buf ~with_digest:false cert
          end
          else begin
            w_byte buf parent_full;
            w_cert_body buf ~with_digest:true cert
          end)
  | Message.Notarization_share s ->
      w_byte buf tag_notar_share;
      w_share_msg buf s
  | Message.Notarization cert ->
      w_byte buf tag_notarization;
      w_cert buf cert
  | Message.Finalization_share s ->
      w_byte buf tag_final_share;
      w_share_msg buf s
  | Message.Finalization cert ->
      w_byte buf tag_finalization;
      w_cert buf cert
  | Message.Beacon_share { b_round; b_signer; b_share } ->
      w_byte buf tag_beacon_share;
      w_int buf b_round;
      w_int buf b_signer;
      w_vuf_share buf b_share
  | Message.Pool_summary { ps_party; ps_round; ps_kmax } ->
      w_byte buf tag_pool_summary;
      w_int buf ps_party;
      w_int buf ps_round;
      w_int buf ps_kmax
  | Message.Pool_request { pr_party; pr_from; pr_upto } ->
      w_byte buf tag_pool_request;
      w_int buf pr_party;
      w_int buf pr_from;
      w_int buf pr_upto);
  Buffer.contents buf

let decode (data : string) : Message.t option =
  Icc_obs.Profile.span "codec.decode" @@ fun () ->
  let c = { data; pos = 0 } in
  match
    let tag = r_byte c in
    let msg =
      if tag = tag_proposal then begin
        let p_block = r_block c in
        let p_authenticator = r_schnorr c in
        let marker = r_byte c in
        let p_parent_cert =
          if marker = parent_none then None
          else if marker = parent_full then Some (r_cert_body c ~digest:None)
          else if marker = parent_elided then
            Some (r_cert_body c ~digest:(Some p_block.Block.parent_hash))
          else raise Malformed
        in
        (* canonical form: an encoder must elide a matching digest *)
        (match p_parent_cert with
        | Some cert
          when marker = parent_full
               && Icc_crypto.Sha256.equal cert.Types.c_block_hash
                    p_block.Block.parent_hash ->
            raise Malformed
        | _ -> ());
        Message.Proposal { p_block; p_authenticator; p_parent_cert }
      end
      else if tag = tag_notar_share then Message.Notarization_share (r_share_msg c)
      else if tag = tag_notarization then Message.Notarization (r_cert c)
      else if tag = tag_final_share then Message.Finalization_share (r_share_msg c)
      else if tag = tag_finalization then Message.Finalization (r_cert c)
      else if tag = tag_beacon_share then begin
        let b_round = r_int c in
        let b_signer = r_int c in
        let b_share = r_vuf_share c in
        Message.Beacon_share { b_round; b_signer; b_share }
      end
      else if tag = tag_pool_summary then begin
        let ps_party = r_int c in
        let ps_round = r_int c in
        let ps_kmax = r_int c in
        Message.Pool_summary { ps_party; ps_round; ps_kmax }
      end
      else if tag = tag_pool_request then begin
        let pr_party = r_int c in
        let pr_from = r_int c in
        let pr_upto = r_int c in
        Message.Pool_request { pr_party; pr_from; pr_upto }
      end
      else raise Malformed
    in
    if c.pos <> String.length data then raise Malformed;
    msg
  with
  | msg -> Some msg
  | exception Malformed -> None
  | exception Invalid_argument _ -> None
