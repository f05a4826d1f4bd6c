(** Span-based self-profiler: nestable named spans with wall-clock timing,
    per-phase total/self aggregation, per-party and per-round attribution,
    and folded-stack (flamegraph-compatible) output.

    The profiler is a runtime switch — OFF by default and forbidden from
    changing behaviour.  When disabled, {!span} is one
    ref read and a branch before calling the thunk: no clock is read,
    nothing is recorded, and traced runs stay byte-identical to
    unprofiled ones.

    The profiler keeps one module-level span stack and takes no lock:
    the simulator runs every party on one domain (DESIGN.md §3.9).
    When enabled, a span costs two [Unix.gettimeofday] reads plus O(1)
    hashtable updates at exit.  Either way the profiler writes no trace
    events itself and feeds nothing back into the simulation, so enabling
    it never perturbs scheduling (the runner asserts this in CI by
    stripping [prof-*] lines and comparing traces byte-for-byte).

    Span names are dot-separated [layer.operation] labels
    ([crypto.schnorr_verify], [pool.admit], [engine.dispatch], ...); the
    nesting stack is joined with [";"] into folded-stack paths
    ([engine.dispatch;party.step;pool.admit;crypto.schnorr_verify]) that
    flamegraph tooling consumes directly.

    Attribution context: the protocol layer calls {!set_party}/{!set_round}
    as it switches between parties and rounds; a span's self-time is
    charged to the context current when it *exits*.  The context is
    best-effort (an engine-level span spanning a context switch lands on
    the newer context) — right for heatmaps, not for accounting audits. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop all recorded data and the current span stack (the enabled flag is
    left as-is). *)

val now : unit -> float
(** The profiler's wall clock, in seconds.  Exposed so front ends measure
    wall time with the same clock the spans use. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a span.  Exceptions propagate and
    still close the span. *)

val set_party : int -> unit
val set_round : int -> unit

type stat = {
  sp_name : string;
  sp_count : int;
  sp_total_s : float;
      (** Wall-clock including children.  Recursive re-entry of the same
          span name is counted at every level, so totals across names can
          exceed wall time; self-times never double-count. *)
  sp_self_s : float;  (** Wall-clock excluding child spans. *)
}

val stats : unit -> stat list
(** Per-span-name aggregation, sorted by name. *)

val folded : unit -> (string * int * float) list
(** [(path, count, self seconds)] per distinct stack path, sorted by
    path — the flamegraph view. *)

val folded_lines : unit -> string
(** The folded list in Brendan Gregg's folded-stack format, one
    ["path self-microseconds"] line per path — feed to
    [flamegraph.pl] / [inferno-flamegraph]. *)

val by_round : unit -> (int * (string * float) list) list
(** Self-seconds per (round, span name), rounds ascending, names sorted
    within each round.  Round 0 collects work outside any round context
    (setup, keygen). *)

val by_party : unit -> (int * (string * float) list) list
(** Same, keyed by the party context; party 0 is outside-any-party work. *)
