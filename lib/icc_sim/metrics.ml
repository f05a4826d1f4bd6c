(* Per-party traffic and protocol metrics for one simulation run,
   maintained incrementally from the {!Trace} bus (see [attach]).

   Traffic is accounted at modeled wire sizes (see DESIGN.md): the network
   layer carries the byte size of each message on its [Net_send] events.
   Per-round milestone tables (entry / proposal / notarization /
   finalization) are Hashtbl-backed, so recording is O(1) per event rather
   than a scan over all rounds seen so far.

   The per-kind traffic counters sit on the hottest path of all — one
   update per [Net_send], i.e. per broadcast — so they are interned
   arrays, not string-keyed Hashtbls: each distinct kind string is mapped
   to a dense index once, and the common case (the same static kind
   string as the previous event) is a physical-equality hit that touches
   no hash function at all. *)

type t = {
  n : int;
  msgs_sent : int array; (* per party, network messages (unicast count) *)
  bytes_sent : int array;
  (* interned per-kind counters *)
  mutable kind_names : string array;
  mutable kind_msgs : int array;
  mutable kind_bytes : int array;
  mutable kind_count : int;
  mutable last_kind : string; (* memoized last lookup *)
  mutable last_kind_idx : int;
  mutable finalized_blocks : int;
  mutable finalization_log : (int * float) list; (* (round, time), newest first *)
  finalization_by_round : (int, float) Hashtbl.t; (* first decision per round *)
  proposal_by_round : (int, float) Hashtbl.t; (* first proposal per round *)
  notarization_by_round : (int, float) Hashtbl.t; (* first notarization *)
  round_entry_by_round : (int, float) Hashtbl.t; (* first party entry *)
  mutable latencies : float list; (* propose -> finalize, per finalized block *)
  mutable latencies_sorted : float array option; (* memoized sorted view *)
  mutable max_round : int; (* highest round seen in any milestone *)
}

let create n =
  {
    n;
    msgs_sent = Array.make (n + 1) 0;
    bytes_sent = Array.make (n + 1) 0;
    kind_names = Array.make 16 "";
    kind_msgs = Array.make 16 0;
    kind_bytes = Array.make 16 0;
    kind_count = 0;
    last_kind = "";
    last_kind_idx = -1;
    finalized_blocks = 0;
    finalization_log = [];
    finalization_by_round = Hashtbl.create 64;
    proposal_by_round = Hashtbl.create 64;
    notarization_by_round = Hashtbl.create 64;
    round_entry_by_round = Hashtbl.create 64;
    latencies = [];
    latencies_sorted = None;
    max_round = 0;
  }

let n t = t.n

(* --- recording --------------------------------------------------------- *)

(* Intern [kind], with a fast path for repeat senders: kind strings are
   static literals from [Message.kind] and friends, so physical equality
   with the previous event's kind almost always hits.  The fallback scan
   is over the handful of distinct kinds a run produces. *)
let kind_index t kind =
  if kind == t.last_kind then t.last_kind_idx
  else begin
    let idx = ref (-1) in
    (try
       for i = 0 to t.kind_count - 1 do
         if String.equal t.kind_names.(i) kind then begin
           idx := i;
           raise_notrace Exit
         end
       done
     with Exit -> ());
    if !idx < 0 then begin
      if t.kind_count = Array.length t.kind_names then begin
        let cap = 2 * t.kind_count in
        let names = Array.make cap "" in
        let msgs = Array.make cap 0 in
        let bytes = Array.make cap 0 in
        Array.blit t.kind_names 0 names 0 t.kind_count;
        Array.blit t.kind_msgs 0 msgs 0 t.kind_count;
        Array.blit t.kind_bytes 0 bytes 0 t.kind_count;
        t.kind_names <- names;
        t.kind_msgs <- msgs;
        t.kind_bytes <- bytes
      end;
      t.kind_names.(t.kind_count) <- kind;
      idx := t.kind_count;
      t.kind_count <- t.kind_count + 1
    end;
    t.last_kind <- kind;
    t.last_kind_idx <- !idx;
    !idx
  end

let record_send t ~src ~size ~kind ~copies =
  if src >= 1 && src <= t.n then begin
    t.msgs_sent.(src) <- t.msgs_sent.(src) + copies;
    t.bytes_sent.(src) <- t.bytes_sent.(src) + (size * copies)
  end;
  let i = kind_index t kind in
  t.kind_msgs.(i) <- t.kind_msgs.(i) + copies;
  t.kind_bytes.(i) <- t.kind_bytes.(i) + (size * copies)

let seen_round t round = if round > t.max_round then t.max_round <- round

(* First-event-wins per round: O(1) membership via the Hashtbl, replacing
   the old List.mem_assoc scan over every round recorded so far. *)
let record_first tbl t ~round ~time =
  if not (Hashtbl.mem tbl round) then begin
    Hashtbl.add tbl round time;
    seen_round t round
  end

let record_proposal t ~round ~time = record_first t.proposal_by_round t ~round ~time
let record_round_entry t ~round ~time = record_first t.round_entry_by_round t ~round ~time
let record_notarization t ~round ~time = record_first t.notarization_by_round t ~round ~time

let record_finalization t ~round ~time =
  t.finalized_blocks <- t.finalized_blocks + 1;
  t.finalization_log <- (round, time) :: t.finalization_log;
  record_first t.finalization_by_round t ~round ~time

let record_latency t dt =
  t.latencies <- dt :: t.latencies;
  t.latencies_sorted <- None

(* --- the trace-bus consumer -------------------------------------------- *)

let attach t trace =
  Trace.subscribe ~all:false trace (fun ~time ev ->
      match ev with
      | Trace.Net_send { src; kind; size; copies; _ } ->
          record_send t ~src ~size ~kind ~copies
      | Trace.Round_entry { round; _ } -> record_round_entry t ~round ~time
      | Trace.Propose { round; _ } -> record_proposal t ~round ~time
      | Trace.Notarize { round; _ } -> record_notarization t ~round ~time
      | Trace.Block_decided { round; _ } -> (
          record_finalization t ~round ~time;
          match Hashtbl.find_opt t.proposal_by_round round with
          | Some t0 -> record_latency t (time -. t0)
          | None -> ())
      | Trace.Run_start _ | Trace.Run_end _ | Trace.Engine_dispatch _
      | Trace.Net_deliver _ | Trace.Net_hold _ | Trace.Gossip_publish _
      | Trace.Gossip_request _ | Trace.Gossip_acquire _ | Trace.Rbc_fragment _
      | Trace.Rbc_echo _ | Trace.Rbc_reconstruct _ | Trace.Rbc_inconsistent _
      | Trace.Finalize _ | Trace.Beacon_share _ | Trace.Commit _
      | Trace.Protocol_error _ | Trace.Monitor_violation _
      | Trace.Monitor_stall _ | Trace.Monitor_clear _
      | Trace.Fault_drop _ | Trace.Fault_duplicate _ | Trace.Fault_reorder _
      | Trace.Fault_link_down _ | Trace.Fault_crash _ | Trace.Fault_recover _ | Trace.Adv_corrupt _ | Trace.Adv_equivocate _
      | Trace.Adv_withhold _ | Trace.Adv_censor _ | Trace.Adv_delay _
      | Trace.Adv_straggle _
      | Trace.Resync_summary _ | Trace.Resync_request _ | Trace.Resync_reply _
      | Trace.Prof_span _ | Trace.Prof_counter _ ->
          ())

(* --- queries ----------------------------------------------------------- *)

let total_msgs t = Array.fold_left ( + ) 0 t.msgs_sent
let total_bytes t = Array.fold_left ( + ) 0 t.bytes_sent

let max_bytes_per_party t = Array.fold_left max 0 t.bytes_sent

let find_kind t kind =
  let idx = ref (-1) in
  (try
     for i = 0 to t.kind_count - 1 do
       if String.equal t.kind_names.(i) kind then begin
         idx := i;
         raise_notrace Exit
       end
     done
   with Exit -> ());
  !idx

let msgs_of_kind t kind =
  let i = find_kind t kind in
  if i < 0 then 0 else t.kind_msgs.(i)

let bytes_of_kind t kind =
  let i = find_kind t kind in
  if i < 0 then 0 else t.kind_bytes.(i)

let kinds t =
  let rec collect i acc =
    if i < 0 then acc
    else
      collect (i - 1)
        ((t.kind_names.(i), t.kind_msgs.(i), t.kind_bytes.(i)) :: acc)
  in
  collect (t.kind_count - 1) []
  |> List.sort (fun (ka, _, _) (kb, _, _) -> String.compare ka kb)

let finalized_blocks t = t.finalized_blocks
let finalizations t = List.rev t.finalization_log
let latencies t = List.rev t.latencies
let max_round t = t.max_round

let round_entry_time t round = Hashtbl.find_opt t.round_entry_by_round round
let proposal_time t round = Hashtbl.find_opt t.proposal_by_round round
let notarization_time t round = Hashtbl.find_opt t.notarization_by_round round
let finalization_time t round = Hashtbl.find_opt t.finalization_by_round round

let notarized_through t limit =
  let rec from r =
    r > limit || (Hashtbl.mem t.notarization_by_round r && from (r + 1))
  in
  from 1

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* [nan]s are dropped before sorting (the polymorphic [compare] mis-sorts
   them, and they would poison any rank they landed on). *)
let sorted_samples l =
  let a =
    Array.of_list (List.filter (fun x -> not (Float.is_nan x)) l)
  in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile over an already-sorted sample array. *)
let percentile_of_sorted p a =
  let len = Array.length a in
  if len = 0 then nan
  else
    let idx = int_of_float (ceil (p /. 100. *. float_of_int len)) - 1 in
    a.(max 0 (min (len - 1) idx))

let percentile p l = percentile_of_sorted p (sorted_samples l)

(* The run's latency distribution, sorted once and memoized;
   [record_latency] invalidates the view, so repeated percentile queries
   over a finished (or quiescent) run are O(1) after the first. *)
let latency_percentile t p =
  let a =
    match t.latencies_sorted with
    | Some a -> a
    | None ->
        let a = sorted_samples t.latencies in
        t.latencies_sorted <- Some a;
        a
  in
  percentile_of_sorted p a

let mean_latency t = mean t.latencies

let blocks_per_second t ~window =
  if window <= 0. then nan else float_of_int t.finalized_blocks /. window

let mean_bytes_per_party_per_second t ~window =
  if window <= 0. || t.n = 0 then nan
  else float_of_int (total_bytes t) /. float_of_int t.n /. window
