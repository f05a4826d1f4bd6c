(** Process-global metrics registry: named monotonic counters with a
    Prometheus-style text exposition.

    The registry sits below every other library (its only dependency is
    [unix], pulled in by {!Profile}), so the crypto, simulator and protocol
    layers can all register counters without dependency cycles.  Counters
    are write-only from inside [lib/]: nothing in the protocol reads them
    back, so they cannot influence scheduling or trace bytes.

    Registration is idempotent: asking for an existing name returns the
    already-registered counter, so modules can declare their counters at
    load time without coordination. *)

type counter

val counter : string -> counter
(** Register (or fetch) the counter [name]. *)

val inc : counter -> unit
(** O(1) increment — one field write, safe on hot paths. *)

val add : counter -> int -> unit
val value : counter -> int

val counters : unit -> (string * int) list
(** All registered counters with current values, sorted by name. *)

val reset : unit -> unit
(** Zero every counter (counters stay registered).  Benchmark drivers
    call this between measured runs. *)

val to_prometheus : unit -> string
(** Prometheus text exposition: per counter, sorted by name, a
    [# TYPE name counter] line and a [name value] sample, with names
    sanitised to [\[a-zA-Z0-9_\]]. *)
