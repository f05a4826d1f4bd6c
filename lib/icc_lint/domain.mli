(** D5-D8 domain-safety analysis (DESIGN.md §3.9): an inventory of
    top-level mutable state, a reference graph rooted at the
    [@icc.domain_entry] seeds, and findings for unsynchronized state
    reachable from the domain-entry closure.

    [collect] is called once per linted implementation; [finalize] once
    all units are in — it resolves names across modules, runs the
    reachability pass and reports through the same callback as the
    D1-D4 rules.  Escape hatches: [@@icc.domain_safe "justification"]
    on a declaration, or [@icc.allow "d5-..|d6-..|d7-..|d8-..: ..."]
    at a use site or on the declaration (which then covers every use of
    that state).  Unused hatches are reported as [allow-unused]. *)

type acc

val create : unit -> acc

val collect :
  acc ->
  table:Typeinfo.table ->
  modname:string ->
  report:(Diag.t -> unit) ->
  Typedtree.structure ->
  unit

val finalize : acc -> report:(Diag.t -> unit) -> unit

type inv = {
  i_name : string;  (** qualified key, e.g. ["Group.Fixed_base.cache"] *)
  i_kind : string;  (** ["ref"], ["Hashtbl"], ["lazy"], ... *)
  i_sync : string;
      (** ["atomic"], ["domain-local"], ["lock"], ["unsynchronized"] or
          ["domain_safe: <justification>"] *)
  i_file : string;
  i_line : int;
}

val inventory : acc -> inv list
(** The collected mutable-state inventory, sorted by name. *)
