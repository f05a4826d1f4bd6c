(* The per-expression suppression escape hatch:

     (Hashtbl.fold f tbl [] [@icc.allow "d2-hashtbl-order: commutative sum"])

   One string payload, ["rule-id: justification"].  The justification is
   mandatory — an allow without a written reason is itself a finding — and
   an allow that suppresses nothing is reported too, so stale annotations
   cannot linger after the code they excused is gone.  Scoping is lexical:
   an allow covers the annotated expression and everything beneath it. *)

type entry = {
  a_rule : string;
  a_loc : Location.t;
  mutable a_used : bool;
}

type t = {
  mutable stack : entry list list;
  report : Diag.t -> unit;
}

let create ~report = { stack = []; report }

let attribute_name = "icc.allow"

(* Minimum justification: non-empty after the colon.  (Rejecting short
   strings outright would just invite "xxxxxxx"; review judges quality.) *)
let parse_payload s =
  match String.index_opt s ':' with
  | None -> Error "payload must be \"rule-id: justification\""
  | Some i ->
      let rule = String.trim (String.sub s 0 i) in
      let just = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      if not (Diag.is_suppressible rule) then
        Error
          (Printf.sprintf "unknown or non-suppressible rule id %S (known: %s)"
             rule
             (String.concat ", " Diag.suppressible_rules))
      else if String.equal just "" then
        Error (Printf.sprintf "missing justification for %S" rule)
      else Ok rule

let string_payload (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

(* Push the allows found in [attrs]; returns [true] iff a frame was
   pushed (and must be popped by the caller). *)
let push t (attrs : Parsetree.attributes) =
  let entries =
    List.filter_map
      (fun (attr : Parsetree.attribute) ->
        if not (String.equal attr.attr_name.txt attribute_name) then None
        else
          match string_payload attr with
          | None ->
              t.report
                (Diag.of_location attr.attr_loc ~rule:Diag.rule_allow_bad
                   ~msg:
                     "[@icc.allow] payload must be a string literal \
                      \"rule-id: justification\"");
              None
          | Some s -> (
              match parse_payload s with
              | Error msg ->
                  t.report
                    (Diag.of_location attr.attr_loc ~rule:Diag.rule_allow_bad
                       ~msg:("malformed [@icc.allow]: " ^ msg));
                  None
              | Ok rule ->
                  Some { a_rule = rule; a_loc = attr.attr_loc; a_used = false }))
      attrs
  in
  if entries = [] then false
  else begin
    t.stack <- entries :: t.stack;
    true
  end

(* Pop one frame; unused allows become findings. *)
let pop t =
  match t.stack with
  | [] -> ()
  | frame :: rest ->
      t.stack <- rest;
      List.iter
        (fun e ->
          if not e.a_used then
            t.report
              (Diag.of_location e.a_loc ~rule:Diag.rule_allow_unused
                 ~msg:
                   (Printf.sprintf
                      "[@icc.allow %S] suppressed nothing — remove it" e.a_rule)))
        frame

(* Is [rule] allowed here?  Marks the innermost matching allow used. *)
let permits t rule =
  let rec scan = function
    | [] -> false
    | frame :: rest -> (
        match List.find_opt (fun e -> String.equal e.a_rule rule) frame with
        | Some e ->
            e.a_used <- true;
            true
        | None -> scan rest)
  in
  scan t.stack
