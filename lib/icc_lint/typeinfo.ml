(* Cross-module type knowledge for the lint pass.

   The rules need to answer two questions about the type a polymorphic
   primitive is instantiated at:

     - does structural comparison of this type resolve to a single
       primitive atom (so [compare] / [=] are deterministic and fine)?
     - is this a protocol-owned type whose dedicated comparator must be
       used instead?

   Neither is answerable from one [.cmt] alone: [Types.party_id] is a
   transparent alias of [int] while [Sha256.t] is abstract, and both facts
   live in *other* compilation units.  So a first pass collects every type
   declaration from the build's [.cmti] files (falling back to [.cmt] when
   a module has no interface).  Using the *interface* view is deliberate:
   a type kept abstract in its [.mli] is one whose module exports a
   dedicated comparator, and outside code must not look through it — while
   inside the defining module the type is referenced by its local name,
   which never resolves through this table, so structural code there stays
   permitted. *)

type decl =
  | Alias of Types.type_expr (* manifest of a transparent nullary alias *)
  | Record
  | Variant_enum (* all constructors constant: tag compare is total *)
  | Variant_payload
  | Abstract
  | Open

type table = (string, decl) Hashtbl.t

(* --- name normalization ------------------------------------------------ *)

(* Dune-wrapped modules appear as ["Icc_core__Types"]; strip to the suffix
   after the last ["__"] so paths seen from inside the library, from other
   libraries and from declarations all converge on ["Types"]. *)
let norm_component s =
  let n = String.length s in
  let cut = ref 0 in
  for i = 0 to n - 2 do
    if s.[i] = '_' && s.[i + 1] = '_' && i + 2 < n then cut := i + 2
  done;
  if !cut = 0 then s else String.sub s !cut (n - !cut)

let path_components p =
  List.map norm_component (String.split_on_char '.' (Path.name p))

let norm_path p = String.concat "." (path_components p)

(* ["Module.type"] key for the declaration table: last module component
   (normalized) + type name.  A bare [Pident] (a type local to the module
   being linted) yields just the name and never matches the table. *)
let type_key p =
  let rec last2 = function
    | [ m; t ] -> m ^ "." ^ t
    | [ t ] -> t
    | _ :: tl -> last2 tl
    | [] -> ""
  in
  last2 (path_components p)

let module_of_key key =
  match String.index_opt key '.' with
  | Some i -> String.sub key 0 i
  | None -> ""

(* --- declaration collection -------------------------------------------- *)

let decl_of_kind ~manifest kind =
  match (kind : Typedtree.type_kind) with
  | Ttype_record _ -> Record
  | Ttype_open -> Open
  | Ttype_variant cds ->
      let constant (cd : Typedtree.constructor_declaration) =
        match cd.cd_args with Cstr_tuple [] -> true | _ -> false
      in
      if List.for_all constant cds then Variant_enum else Variant_payload
  | Ttype_abstract -> (
      match manifest with
      | Some (ct : Typedtree.core_type) -> Alias ct.ctyp_type
      | None -> Abstract)

let add_declaration table ~modname ~overwrite (td : Typedtree.type_declaration)
    =
  (* Parametric aliases would need substitution at use sites; treat them as
     opaque rather than resolve them wrongly. *)
  let manifest = if td.typ_params = [] then td.typ_manifest else None in
  let d =
    match (manifest, td.typ_kind) with
    | Some _, Ttype_abstract -> decl_of_kind ~manifest td.typ_kind
    | _, k -> decl_of_kind ~manifest:None k
  in
  let key = norm_component modname ^ "." ^ td.typ_name.txt in
  if overwrite || not (Hashtbl.mem table key) then Hashtbl.replace table key d

let collect_signature table ~modname ~overwrite (sg : Typedtree.signature) =
  List.iter
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_type (_, tds) ->
          List.iter (add_declaration table ~modname ~overwrite) tds
      | _ -> ())
    sg.sig_items

let collect_structure table ~modname ~overwrite (st : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_type (_, tds) ->
          List.iter (add_declaration table ~modname ~overwrite) tds
      | _ -> ())
    st.str_items

let create () : table = Hashtbl.create 256

(* [overwrite] distinguishes interface entries (authoritative) from
   implementation fallbacks. *)
let add_cmt table (cmt : Cmt_format.cmt_infos) =
  let modname = cmt.cmt_modname in
  match cmt.cmt_annots with
  | Interface sg -> collect_signature table ~modname ~overwrite:true sg
  | Implementation st -> collect_structure table ~modname ~overwrite:false st
  | _ -> ()

(* --- classification ----------------------------------------------------- *)

(* Primitive atoms whose structural compare/equality is total, cheap and
   deterministic. *)
let atom_names =
  [ "int"; "char"; "bool"; "string"; "bytes"; "unit"; "int32"; "int64";
    "nativeint" ]

(* Containers we look through: structural ops recurse into the element. *)
let container_names =
  [ "list"; "option"; "array"; "ref"; "Stdlib.ref"; "Stdlib.result";
    "result"; "Seq.t"; "Stdlib.Seq.t" ]

(* Mutable stdlib containers: [=] on them compares hidden bucket / node
   structure — never meaningful, often nondeterministic. *)
let mutable_container_names =
  [ "Hashtbl.t"; "Stdlib.Hashtbl.t"; "Queue.t"; "Stdlib.Queue.t"; "Stack.t";
    "Stdlib.Stack.t"; "Buffer.t"; "Stdlib.Buffer.t" ]

let mem name l = List.exists (String.equal name) l

type verdict = Safe | Hazard of string

let rec resolve ~table ~fuel (ty : Types.type_expr) : Types.type_expr =
  if fuel = 0 then ty
  else
    match Types.get_desc ty with
    | Tconstr (p, [], _) -> (
        match Hashtbl.find_opt table (type_key p) with
        | Some (Alias t) -> resolve ~table ~fuel:(fuel - 1) t
        | _ -> ty)
    | _ -> ty

(* Hazard check for *order-sensitive* polymorphic primitives ([compare],
   [min], [max], [<] ..., [Hashtbl.hash]).  [float_ok] distinguishes the
   primitives for which IEEE floats are acceptable ([<], [min], ...) from
   [compare]/[hash], where [Float.compare] should be spelled out. *)
let rec order_hazard ~table ~protocol ~float_ok ~fuel ty : verdict =
  if fuel = 0 then Safe
  else
    let ty = resolve ~table ~fuel ty in
    match Types.get_desc ty with
    | Tvar _ | Tunivar _ -> Hazard "a type variable (unprovable determinism)"
    | Ttuple _ -> Hazard "a tuple (write a keyed comparator)"
    | Tarrow _ -> Hazard "a function type"
    | Tpoly (t, _) -> order_hazard ~table ~protocol ~float_ok ~fuel:(fuel - 1) t
    | Tconstr (p, args, _) -> (
        let name = norm_path p in
        let key = type_key p in
        if mem name atom_names then Safe
        else if String.equal name "float" then
          if float_ok then Safe
          else Hazard "float (use Float.compare / Float.hash)"
        else if mem name container_names || mem key container_names then
          List.fold_left
            (fun acc a ->
              match acc with
              | Hazard _ -> acc
              | Safe ->
                  order_hazard ~table ~protocol ~float_ok ~fuel:(fuel - 1) a)
            Safe args
        else
          match Hashtbl.find_opt table key with
          | Some Variant_enum -> Safe
          | Some (Record | Variant_payload | Open) ->
              Hazard
                (Printf.sprintf "structured type %s (write a keyed comparator)"
                   key)
          | Some Abstract ->
              Hazard
                (Printf.sprintf "abstract type %s (use its dedicated comparator)"
                   key)
          | Some (Alias _) | None ->
              if protocol (module_of_key key) then
                Hazard (Printf.sprintf "protocol type %s" key)
              else Safe)
    | _ -> Safe

(* Hazard check for structural equality ([=], [<>], [List.mem], ...).
   More lenient than [order_hazard]: tuples/records of atoms are fine —
   equality does not depend on an ordering — so only protocol-owned
   types, abstract types, floats, type variables, functions and mutable
   containers are flagged. *)
let rec equality_hazard ~table ~protocol ~fuel ty : verdict =
  if fuel = 0 then Safe
  else
    let ty = resolve ~table ~fuel ty in
    match Types.get_desc ty with
    | Tvar _ | Tunivar _ -> Hazard "a type variable (unprovable determinism)"
    | Tarrow _ -> Hazard "a function type (equality raises)"
    | Tpoly (t, _) -> equality_hazard ~table ~protocol ~fuel:(fuel - 1) t
    | Ttuple ts ->
        List.fold_left
          (fun acc t ->
            match acc with
            | Hazard _ -> acc
            | Safe -> equality_hazard ~table ~protocol ~fuel:(fuel - 1) t)
          Safe ts
    | Tconstr (p, args, _) -> (
        let name = norm_path p in
        let key = type_key p in
        if mem name atom_names then Safe
        else if String.equal name "float" then
          Hazard "float (traverses IEEE float equality; compare explicitly)"
        else if mem name mutable_container_names || mem key mutable_container_names
        then Hazard (Printf.sprintf "mutable container %s" key)
        else if mem name container_names || mem key container_names then
          List.fold_left
            (fun acc a ->
              match acc with
              | Hazard _ -> acc
              | Safe -> equality_hazard ~table ~protocol ~fuel:(fuel - 1) a)
            Safe args
        else
          match Hashtbl.find_opt table key with
          | Some Variant_enum -> Safe
          | Some (Record | Variant_payload | Open) ->
              if protocol (module_of_key key) then
                Hazard
                  (Printf.sprintf "protocol type %s (use its dedicated equality)"
                     key)
              else Safe
          | Some Abstract ->
              if protocol (module_of_key key) then
                Hazard
                  (Printf.sprintf
                     "abstract protocol type %s (use its dedicated equality)" key)
              else Safe
          | Some (Alias _) | None ->
              if protocol (module_of_key key) then
                Hazard (Printf.sprintf "protocol type %s" key)
              else Safe)
    | _ -> Safe

let is_float ~table ty =
  match Types.get_desc (resolve ~table ~fuel:8 ty) with
  | Tconstr (p, [], _) -> String.equal (norm_path p) "float"
  | _ -> false
