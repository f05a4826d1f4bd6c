(* Span-based self-profiler (contract in profile.mli).

   Hot-path discipline: with the toggle off, [span] costs one ref read
   and a branch.  With it on, entry reads the clock and pushes a
   reusable stack frame (the frame array is grown geometrically and
   never shrunk, so steady-state entry allocates only the folded-path
   string); exit reads the clock and folds the frame into the
   aggregation tables.

   The simulator runs on one domain, so the toggle is a plain [ref] and
   the span stack, attribution context and aggregation tables are
   module-level state that takes no lock (DESIGN.md §3.9).

   All query output is sorted with keyed comparators — Hashtbl iteration
   order never escapes. *)

let on = ref false
let enabled () = !on
let set_enabled b = on := b

let now () =
  (Unix.gettimeofday ()
  [@icc.allow
    "d3-banned-fn: the profiler's whole purpose is reading host wall-clock; \
     it is default-off, write-only, and feeds nothing back into the \
     simulation"])

(* --- span stack ---------------------------------------------------------- *)

type frame = {
  mutable fr_name : string;
  mutable fr_path : string; (* ";"-joined stack including this frame *)
  mutable fr_start : float;
  mutable fr_child : float; (* accumulated child wall-clock *)
}

let fresh_frame () = { fr_name = ""; fr_path = ""; fr_start = 0.; fr_child = 0. }

(* The profiler's state: the span stack plus the round/party
   attribution context of whatever is executing. *)
type pstate = {
  mutable frames : frame array;
  mutable depth : int;
  mutable round : int;
  mutable party : int;
}

let st =
  { frames = Array.init 64 (fun _ -> fresh_frame ()); depth = 0; round = 0; party = 0 }

let grow () =
  let old = st.frames in
  let n = Array.length old in
  st.frames <-
    Array.init (2 * n) (fun i -> if i < n then old.(i) else fresh_frame ())

let set_round r = st.round <- r
let set_party p = st.party <- p

(* --- aggregation --------------------------------------------------------- *)

type agg = { mutable a_count : int; mutable a_total : float; mutable a_self : float }
type cell = { mutable cl_count : int; mutable cl_self : float }

let agg_tbl : (string, agg) Hashtbl.t = Hashtbl.create 64

let folded_tbl : (string, cell) Hashtbl.t = Hashtbl.create 256

(* context -> (span name -> self seconds); two-level so the leaf tables
   stay small and keyed by the same interned name strings. *)
let round_tbl : (int, (string, float ref) Hashtbl.t) Hashtbl.t = Hashtbl.create 64

let party_tbl : (int, (string, float ref) Hashtbl.t) Hashtbl.t = Hashtbl.create 64

let reset () =
  Hashtbl.reset agg_tbl;
  Hashtbl.reset folded_tbl;
  Hashtbl.reset round_tbl;
  Hashtbl.reset party_tbl;
  st.round <- 0;
  st.party <- 0;
  st.depth <- 0

let charge tbl key name self =
  let leaf =
    match Hashtbl.find_opt tbl key with
    | Some leaf -> leaf
    | None ->
        let leaf = Hashtbl.create 16 in
        Hashtbl.add tbl key leaf;
        leaf
  in
  match Hashtbl.find_opt leaf name with
  | Some r -> r := !r +. self
  | None -> Hashtbl.add leaf name (ref self)

let record fr total self =
  (match Hashtbl.find_opt agg_tbl fr.fr_name with
  | Some a ->
      a.a_count <- a.a_count + 1;
      a.a_total <- a.a_total +. total;
      a.a_self <- a.a_self +. self
  | None ->
      Hashtbl.add agg_tbl fr.fr_name
        { a_count = 1; a_total = total; a_self = self });
  (match Hashtbl.find_opt folded_tbl fr.fr_path with
  | Some c ->
      c.cl_count <- c.cl_count + 1;
      c.cl_self <- c.cl_self +. self
  | None ->
      Hashtbl.add folded_tbl fr.fr_path { cl_count = 1; cl_self = self });
  charge round_tbl st.round fr.fr_name self;
  charge party_tbl st.party fr.fr_name self

let enter name =
  let d = st.depth in
  if d >= Array.length st.frames then grow ();
  let fr = st.frames.(d) in
  fr.fr_name <- name;
  fr.fr_path <-
    (if d = 0 then name else st.frames.(d - 1).fr_path ^ ";" ^ name);
  fr.fr_start <- now ();
  fr.fr_child <- 0.;
  st.depth <- d + 1

let leave () =
  let t = now () in
  let d = st.depth - 1 in
  st.depth <- d;
  let fr = st.frames.(d) in
  let total = t -. fr.fr_start in
  let self = Float.max 0. (total -. fr.fr_child) in
  if d > 0 then begin
    let parent = st.frames.(d - 1) in
    parent.fr_child <- parent.fr_child +. total
  end;
  record fr total self

let span name f =
  if not !on then f ()
  else begin
    enter name;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end

(* --- queries ------------------------------------------------------------ *)

type stat = {
  sp_name : string;
  sp_count : int;
  sp_total_s : float;
  sp_self_s : float;
}

let stats () =
  Hashtbl.fold
    (fun name a acc ->
      {
        sp_name = name;
        sp_count = a.a_count;
        sp_total_s = a.a_total;
        sp_self_s = a.a_self;
      }
      :: acc)
    agg_tbl []
  |> List.sort (fun a b -> String.compare a.sp_name b.sp_name)

let folded () =
  Hashtbl.fold (fun path c acc -> (path, c.cl_count, c.cl_self) :: acc) folded_tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let folded_lines () =
  let b = Buffer.create 1024 in
  List.iter
    (fun (path, _count, self) ->
      Buffer.add_string b path;
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int (int_of_float ((self *. 1e6) +. 0.5)));
      Buffer.add_char b '\n')
    (folded ());
  Buffer.contents b

let contexts tbl =
  Hashtbl.fold
    (fun key leaf acc ->
      let cells =
        Hashtbl.fold (fun name r acc -> (name, !r) :: acc) leaf []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      (key, cells) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let by_round () = contexts round_tbl
let by_party () = contexts party_tbl
