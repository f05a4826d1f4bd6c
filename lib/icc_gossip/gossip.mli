(** Peer-to-peer gossip sub-layer (paper §1 and [17]) — the dissemination
    substrate of Protocol ICC1.

    Large artifacts (block proposals) travel by advert → request → deliver
    over a bounded-degree peer graph, so each node transmits a block to at
    most [fanout] peers; small artifacts (shares, certificates) are flooded.
    The known/requested/store state is kept per party, so it remains
    logically distributed. *)

type artifact_id = string

type wire =
  | Advert of { id : artifact_id }
  | Request of { id : artifact_id }
  | Deliver of { id : artifact_id; msg : Icc_core.Message.t }
  | Push of { id : artifact_id; msg : Icc_core.Message.t }

type t

val build_peer_graph : Icc_sim.Rng.t -> n:int -> fanout:int -> int list array
(** A connected graph: ring plus [fanout - 2] random chords per node,
    symmetrised.  Index 0 is unused; exposed for testing. *)

val artifact_id_of : Icc_core.Message.t -> artifact_id

val create :
  env:Icc_sim.Transport.env ->
  rng:Icc_sim.Rng.t ->
  fanout:int ->
  is_active:(int -> bool) ->
  deliver_up:(dst:int -> Icc_core.Message.t -> unit) ->
  unit ->
  t
(** The underlying network is [env]'s ({!Icc_sim.Transport.network_of}):
    it announces every wire message on the env's bus and applies its
    asynchrony hold, nemesis and adversary.  Gossip-layer
    publish/request/acquire events (with artifact ids) are emitted when a
    detail subscriber is present. *)

val publish : t -> src:int -> Icc_core.Message.t -> unit
(** The protocol's "broadcast": inject an artifact at [src].  The publisher
    delivers to itself immediately; duplicates are no-ops (which is exactly
    how gossip absorbs the protocol's echo re-broadcasts). *)

val inject : t -> src:int -> dst:int -> Icc_core.Message.t -> unit
(** Byzantine split delivery: hand an artifact directly to one party,
    outside the advert/request discipline; the receiver re-gossips.
    Resync control messages ({!Icc_core.Message.is_resync}) also travel
    through here and bypass the known/store dedup tables on both ends —
    they are point-to-point and intentionally repeatable. *)

val peers : t -> int -> int list
