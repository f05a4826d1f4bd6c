(* A party's view of the random beacon chain (paper §2.3, §3.2, §3.3).

   R_0 is a fixed genesis value; R_k is the unique threshold signature
   (under S_beacon) on a text binding k and R_{k-1}.  Once R_k is known it
   seeds a pseudo-random permutation of the parties: rank 0 is the round-k
   leader.  Because signatures are unique, every party derives the same
   permutation. *)

type t = {
  system : Icc_crypto.Keygen.system;
  my_key : Icc_crypto.Threshold_vuf.secret_share;
  sigmas : (Types.round, string) Hashtbl.t; (* round -> representation of R_k *)
  randomness : (Types.round, Icc_crypto.Sha256.t) Hashtbl.t;
  permutations : (Types.round, int array) Hashtbl.t; (* rank -> party id *)
}

let create system my_key =
  let t =
    {
      system;
      my_key;
      sigmas = Hashtbl.create 64;
      randomness = Hashtbl.create 64;
      permutations = Hashtbl.create 64;
    }
  in
  Hashtbl.replace t.sigmas 0 Types.beacon_genesis;
  t

let known t round = Hashtbl.mem t.sigmas round

let message_for_round t round =
  if round < 1 then invalid_arg "Beacon.message_for_round: rounds start at 1";
  Option.map
    (fun prev_sigma -> Types.beacon_text ~round ~prev_sigma)
    (Hashtbl.find_opt t.sigmas (round - 1))

let my_share t round =
  Option.map
    (fun msg ->
      Icc_crypto.Threshold_vuf.sign_share t.system.Icc_crypto.Keygen.beacon
        t.my_key msg)
    (message_for_round t round)

let permutation_of_randomness ~n rand =
  let arr = Array.init n (fun i -> i + 1) in
  let rng = Icc_sim.Rng.of_string_seed (rand : Icc_crypto.Sha256.t :> string) in
  Icc_sim.Rng.shuffle_in_place rng arr;
  arr

(* The share verifier for a round, available once R_{round-1} is known.
   Returns [None] for rounds below 1 (a Byzantine peer controls the wire
   round number) and while the previous beacon is unknown. *)
let share_verifier t round =
  if round < 1 then None
  else
    Option.map
      (fun msg share ->
        Icc_crypto.Threshold_vuf.verify_share t.system.Icc_crypto.Keygen.beacon
          msg share)
      (message_for_round t round)

(* Attempt to compute R_round from the pool's shares.  Each share is
   verified at most once (the pool marks survivors and evicts garbage, so
   a spoofed signer slot frees up for the genuine retransmission), and the
   combine step skips re-verification.  [combine_preverified] applies the
   same signer-dedup/selection rule as [combine] did over the unverified
   multiset, so the resulting sigma — and every trace byte derived from
   it — is unchanged. *)
let try_compute t pool round =
  if known t round then true
  else
    match message_for_round t round with
    | None -> false
    | Some msg -> (
        let params = t.system.Icc_crypto.Keygen.beacon in
        let shares =
          Pool.verified_beacon_shares pool ~round
            ~verify:(Icc_crypto.Threshold_vuf.verify_share params msg)
        in
        if
          List.length shares
          < t.system.Icc_crypto.Keygen.t + 1
        then false
        else
          match Icc_crypto.Threshold_vuf.combine_preverified params shares with
          | None -> false
          | Some sig_ ->
              let rand = Icc_crypto.Threshold_vuf.randomness msg sig_ in
              Hashtbl.replace t.sigmas round
                (string_of_int sig_.Icc_crypto.Threshold_vuf.sigma);
              Hashtbl.replace t.randomness round rand;
              Hashtbl.replace t.permutations round
                (permutation_of_randomness ~n:t.system.Icc_crypto.Keygen.n rand);
              true)

let permutation t round = Hashtbl.find_opt t.permutations round

let rank_of t round party =
  match permutation t round with
  | None -> None
  | Some arr ->
      let rec find i = if arr.(i) = party then i else find (i + 1) in
      Some (find 0)

let leader t round =
  match permutation t round with None -> None | Some arr -> Some arr.(0)
