(** Verify-once memo for one run (DESIGN.md §3.11).

    One instance lives in each {!Keygen.system}, so every simulated party
    of a run shares it and it dies with the run; it is never a process
    global.  Lookups are keyed on the full checked tuple, only [true]
    verdicts are stored, and at most [2 * capacity] entries are held.

    The primitives it wraps ({!Schnorr.verify}, {!Dleq.verify}) stay pure
    and unmemoised; each function here has the same type as its
    primitive (after the memo argument), so it can be passed as the
    [?check] of {!Multisig} and {!Threshold_vuf}. *)

type t

val create : n:int -> t
(** A fresh, empty memo for a committee of [n] parties.  Cheap: the
    tables start small and grow with use. *)

val capacity : t -> int
(** Entries per generation: a fixed multiple of [n]. *)

val schnorr : t -> Schnorr.public_key -> string -> Schnorr.signature -> bool
(** {!Schnorr.verify}, answered from the memo when this exact
    (key, message, signature) already verified in this run.  Bumps
    {!Counters.schnorr_memo_hits} on a hit. *)

val dleq :
  t -> base1:Group.elt -> base2:Group.elt -> a:Group.elt -> b:Group.elt ->
  Dleq.proof -> bool
(** {!Dleq.verify}, memoised like {!schnorr} on (bases, powers, proof).
    Bumps {!Counters.dleq_memo_hits} on a hit. *)

val entries : t -> int
(** Entries currently held, both kinds and both generations. *)
