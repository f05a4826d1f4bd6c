(** [@icc.allow "rule-id: justification"] scope tracking.  Malformed and
    unused allows are reported through the [report] callback as
    [allow-bad] / [allow-unused] findings. *)

type t

val create : report:(Diag.t -> unit) -> t

val push : t -> Parsetree.attributes -> bool
(** Open a scope for the allows in [attrs].  Returns [true] iff a frame
    was pushed; the caller must {!pop} after visiting the subtree. *)

val pop : t -> unit

val permits : t -> string -> bool
(** [permits t rule] is [true] when an enclosing allow names [rule]; the
    innermost match is marked used. *)
