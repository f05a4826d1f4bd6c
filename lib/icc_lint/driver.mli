(** Linter orchestration: artifact discovery, the passes, reporting. *)

type config = {
  paths : string list;  (** linted (and contributing type info) *)
  dep_paths : string list;  (** type info only *)
  json : bool;
  protocol_modules : string list;
}

val default_protocol_modules : string list

val default : ?json:bool -> ?dep_paths:string list -> string list -> config

type result = {
  findings : Diag.t list;
  errors : string list;
  modules : int;
}

val collect : config -> result
(** Run both passes (type table, then D1-D4 per module); findings
    arrive sorted and de-duplicated. *)

val run : config -> int
(** [collect] + print findings (stdout) and summary (stderr); with
    [json] a final ["lint-summary"] object carries per-rule counts.
    Returns the intended exit code: 0 clean, 1 findings, 2 unreadable
    artifacts. *)

val config_of_args : string list -> (config, string) Result.t
(** Parse [--json] [--deps DIR]... [PATH]... (shared by
    the standalone binary and the [icc lint] subcommand). *)
