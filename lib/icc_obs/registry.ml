(* Process-global metrics registry (see registry.mli for the contract).

   A counter is a named [mutable int], so a bump is one field write.  The
   simulator runs every party on one domain, so nothing here is shared
   between domains and nothing takes a lock (DESIGN.md §3.9).  All output
   is sorted by name with a keyed comparator, so Hashtbl bucket order
   never escapes. *)

type counter = { mutable count : int }

let registry : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  match Hashtbl.find_opt registry name with
  | Some c -> c
  | None ->
      let c = { count = 0 } in
      Hashtbl.add registry name c;
      c

let inc c = c.count <- c.count + 1
let add c k = c.count <- c.count + k
let value c = c.count

let all_sorted () =
  Hashtbl.fold (fun name c acc -> (name, c) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters () = List.map (fun (name, c) -> (name, c.count)) (all_sorted ())
let reset () = List.iter (fun (_, c) -> c.count <- 0) (all_sorted ())

(* --- Prometheus text exposition ----------------------------------------- *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let to_prometheus () =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, c) ->
      let pname = sanitize name in
      Printf.bprintf b "# TYPE %s counter\n%s %d\n" pname pname c.count)
    (all_sorted ());
  Buffer.contents b
