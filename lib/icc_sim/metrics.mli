(** Per-party traffic and protocol metrics for one simulation run, kept
    incrementally as a [core]-level consumer of the {!Trace} bus.  Traffic
    is accounted at the modeled wire sizes carried by [Net_send] events;
    per-round milestone tables are Hashtbl-backed (O(1) per event). *)

type t

val create : int -> t
(** [create n] for [n] parties (1-based ids). *)

val attach : t -> Trace.t -> unit
(** Subscribe as a [core] sink: [Net_send] drives traffic accounting,
    [Round_entry]/[Propose]/[Notarize] the per-round milestone tables, and
    [Block_decided] finalization counts and propose→decide latencies. *)

val n : t -> int

(** {1 Direct recording}

    The trace sink uses these; tests and custom harnesses may call them
    directly.  The per-round recorders keep the first event per round. *)

val record_send : t -> src:int -> size:int -> kind:string -> copies:int -> unit
(** [copies] is the number of unicast transmissions (e.g. [n-1] for a
    broadcast). *)

val record_finalization : t -> round:int -> time:float -> unit
val record_proposal : t -> round:int -> time:float -> unit
val record_notarization : t -> round:int -> time:float -> unit
val record_round_entry : t -> round:int -> time:float -> unit
val record_latency : t -> float -> unit

(** {1 Traffic} *)

val total_msgs : t -> int
val total_bytes : t -> int
val max_bytes_per_party : t -> int
val msgs_of_kind : t -> string -> int
val bytes_of_kind : t -> string -> int

val kinds : t -> (string * int * int) list
(** [(kind, msgs, bytes)] per message kind, sorted by kind. *)

(** {1 Per-round timeline} *)

val round_entry_time : t -> int -> float option
val proposal_time : t -> int -> float option
val notarization_time : t -> int -> float option
val finalization_time : t -> int -> float option

val notarized_through : t -> int -> bool
(** [notarized_through t r]: every round [1..r] has a notarization
    milestone (vacuously true for [r <= 0]) — P1 (§3) up to round [r]. *)

val max_round : t -> int
(** Highest round seen in any milestone. *)

val finalized_blocks : t -> int

val finalizations : t -> (int * float) list
(** Every finalization [(round, time)] in recording order. *)

val latencies : t -> float list
(** Propose → all-honest-commit latencies in recording order. *)

(** {1 Statistics} *)

val mean : float list -> float

val percentile : float -> float list -> float
(** Nearest-rank percentile; [nan] values are dropped, empty input yields
    [nan]. *)

val sorted_samples : float list -> float array
(** Drop [nan]s and sort ascending — the one-time half of {!percentile},
    for callers querying several ranks of the same samples. *)

val percentile_of_sorted : float -> float array -> float
(** Nearest-rank percentile over a {!sorted_samples} array, O(1). *)

val latency_percentile : t -> float -> float
(** Percentile of the run's propose→commit latencies, served from a
    memoized sorted view that is invalidated by {!record_latency} — so
    analyzers querying many ranks of a finished run sort once, not per
    query. *)

val mean_latency : t -> float
val blocks_per_second : t -> window:float -> float
val mean_bytes_per_party_per_second : t -> window:float -> float
