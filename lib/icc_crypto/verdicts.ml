(* Verify-once memo for one run: the verdicts of Schnorr signatures and
   DLEQ proofs, shared by every simulated party of that run.

   In the paper every party checks every share and certificate it receives
   (§3.2–3.3).  The simulator hosts all n parties in one process and
   charges nothing for compute, so an artifact verified by one party need
   not be verified again by the next: a verdict is a pure function of the
   checked tuple.  The memo plays the role of the validated section of a
   node's artifact pool, with the whole run as the node (DESIGN.md §3.11).

   Rules:
   - The key is the full tuple: (public key, message, whole signature), or
     (both bases, both powers, whole proof).  Dropping any part would let
     one valid item vouch for another.
   - Only [true] verdicts are stored.  A forgery always pays a real check
     and can never shadow a valid item.
   - Entries live in two generations.  When the young one reaches
     [capacity] entries it becomes the old one and the previous old one is
     dropped, so at most [2 * capacity] entries are held however many
     valid items a Byzantine signer produces.  An evicted entry costs only
     a re-verify. *)

type 'k generations = {
  mutable young : ('k, unit) Hashtbl.t;
  mutable old : ('k, unit) Hashtbl.t;
}

type schnorr_key = Group.elt * string * Group.scalar * Group.scalar * Group.elt

type dleq_key =
  Group.elt * Group.elt * Group.elt * Group.elt
  * Group.scalar * Group.scalar * Group.elt * Group.elt

type t = {
  capacity : int;
  schnorr_seen : schnorr_key generations;
  dleq_seen : dleq_key generations;
}

(* An honest round yields about 3n artifacts (n notarization, n
   finalization and n beacon shares), so one generation spans several
   rounds: longer than a share or certificate keeps arriving. *)
let generation_per_party = 16

(* Tables start small and grow with use, so creating a memo stays cheap
   next to key generation. *)
let generations () = { young = Hashtbl.create 16; old = Hashtbl.create 16 }

let create ~n =
  {
    capacity = generation_per_party * n;
    schnorr_seen = generations ();
    dleq_seen = generations ();
  }

let capacity t = t.capacity

let seen g key = Hashtbl.mem g.young key || Hashtbl.mem g.old key

let remember t g key =
  if Hashtbl.length g.young >= t.capacity then begin
    let recycled = g.old in
    Hashtbl.clear recycled;
    g.old <- g.young;
    g.young <- recycled
  end;
  Hashtbl.replace g.young key ()

let memoised t g key ~hits check =
  if seen g key then begin
    Counters.bump hits;
    true
  end
  else if check () then begin
    remember t g key;
    true
  end
  else false

let schnorr t (pk : Schnorr.public_key) msg (s : Schnorr.signature) =
  memoised t t.schnorr_seen
    (pk.Schnorr.pk, msg, s.Schnorr.challenge, s.Schnorr.response,
     s.Schnorr.commitment)
    ~hits:Counters.schnorr_memo_hits
    (fun () -> Schnorr.verify pk msg s)

let dleq t ~base1 ~base2 ~a ~b (proof : Dleq.proof) =
  memoised t t.dleq_seen
    (base1, base2, a, b, proof.Dleq.challenge, proof.Dleq.response,
     proof.Dleq.commit1, proof.Dleq.commit2)
    ~hits:Counters.dleq_memo_hits
    (fun () -> Dleq.verify ~base1 ~base2 ~a ~b proof)

let entries t =
  let size g = Hashtbl.length g.young + Hashtbl.length g.old in
  size t.schnorr_seen + size t.dleq_seen
