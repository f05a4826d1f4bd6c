(* Online invariant monitor: a trace-bus consumer that incrementally
   verifies the paper's safety statements while the simulation runs.  It
   is every run's only safety oracle: Transport.env attaches one to each
   run of all six protocols.

   Safety checks (each maps to a paper property, see DESIGN.md §3.2):
     - P2 / conflicting notarization: once any Finalize for round k names
       digest B, every Notarize for round k must also name B (and dually,
       a Finalize arriving after a conflicting Notarize is caught too);
     - prefix consistency: all Commit events for round k name one digest,
       and each party's commits arrive in strictly increasing round order;
     - quorum-count sanity: at most one Notarize / Beacon_share per party
       per round, never more than n per round, party ids within 1..n.

   Violations are split into fatal ones (safety actually broken) and
   warnings (Byzantine evidence the protocol tolerates, e.g. two distinct
   digests notarized in one round with no finalization — legal under
   equivocation, but worth surfacing with its round and event index).

   The liveness watchdog tracks each round's entry -> notarize -> decide
   pipeline and flags a stage once it has waited longer than
   [stall_factor * delta] (Δ being the partial-synchrony bound).  It is
   purely event-driven: deadlines are checked lazily when an event's
   timestamp passes the earliest open deadline, so the monitor never
   schedules engine work and a monitored run stays byte-identical to an
   unmonitored one.  A flagged stall clears when its milestone finally
   arrives ([Monitor_clear]); stalls still open at [Run_end] remain in
   {!stalled_rounds}.

   Idle cost: one counter bump and one pattern match per event; all state
   is Hashtbl-backed, so nothing is allocated for rounds that behave. *)

type config = {
  delta : float; (* the delay bound Δ the watchdog scales by *)
  stall_factor : float; (* flag a stage after stall_factor * delta *)
  abort_on_violation : bool; (* raise Abort on the first fatal violation *)
}

let default_config ?(stall_factor = 8.) ?(abort_on_violation = false) ~delta ()
    =
  { delta; stall_factor; abort_on_violation }

type violation = {
  v_index : int; (* bus event index at detection (JSONL line, 0-based) *)
  v_time : float;
  v_round : int;
  v_what : string;
  v_detail : string;
  v_fatal : bool;
}

type stall = {
  st_round : int;
  st_stage : string; (* "entry" | "notarize" | "decide" *)
  st_since : float; (* when the stage started waiting *)
  st_flagged_at : float;
  mutable st_cleared_at : float option;
}

exception Abort of violation

let violation_message v =
  Printf.sprintf "monitor: %s violation in round %d at t=%.6f (event %d): %s"
    v.v_what v.v_round v.v_time v.v_index v.v_detail

let () =
  Printexc.register_printer (function
    | Abort v -> Some (violation_message v)
    | _ -> None)

(* Per-round milestone and certificate-digest state.  [notarized] and
   [finalized] stay tiny (one digest each in honest runs), so assoc lists
   beat hash tables here. *)
type round_state = {
  mutable rs_entry : float option;
  mutable rs_propose : float option;
  mutable rs_notarize : float option;
  mutable rs_decided : float option;
  mutable rs_notarized : string list; (* distinct digests with a cert *)
  mutable rs_finalized : string list;
  mutable rs_commit : string option; (* the digest honest parties commit *)
  mutable rs_entry_flagged : bool;
  mutable rs_notarize_flagged : bool;
  mutable rs_decide_flagged : bool;
}

type t = {
  config : config;
  trace : Trace.t option; (* where Monitor_* events are announced *)
  mutable n : int; (* parties, from Run_start (0 = unknown) *)
  mutable index : int; (* events observed so far *)
  mutable started_at : float;
  mutable ended : bool;
  rounds : (int, round_state) Hashtbl.t;
  open_rounds : (int, unit) Hashtbl.t; (* rounds the watchdog still sweeps *)
  mutable max_entered : int; (* highest round with an entry event *)
  mutable next_deadline : float; (* earliest open watchdog deadline *)
  per_party_notarize : (int * int, int) Hashtbl.t; (* (round, party) count *)
  per_party_beacon : (int * int, int) Hashtbl.t;
  per_round_notarize : (int, int) Hashtbl.t; (* total Notarize events *)
  last_commit_round : (int, int) Hashtbl.t; (* party -> last committed round *)
  corrupt : (int, unit) Hashtbl.t; (* parties announced by Adv_corrupt *)
  mutable violations : violation list; (* newest first *)
  mutable stalls : stall list; (* newest first *)
}

let create ?trace config =
  {
    config;
    trace;
    n = 0;
    index = 0;
    started_at = 0.;
    ended = false;
    rounds = Hashtbl.create 64;
    open_rounds = Hashtbl.create 16;
    max_entered = 0;
    next_deadline = infinity;
    per_party_notarize = Hashtbl.create 64;
    per_party_beacon = Hashtbl.create 64;
    per_round_notarize = Hashtbl.create 64;
    last_commit_round = Hashtbl.create 16;
    corrupt = Hashtbl.create 8;
    violations = [];
    stalls = [];
  }

let round_state t round =
  match Hashtbl.find_opt t.rounds round with
  | Some rs -> rs
  | None ->
      let rs =
        {
          rs_entry = None;
          rs_propose = None;
          rs_notarize = None;
          rs_decided = None;
          rs_notarized = [];
          rs_finalized = [];
          rs_commit = None;
          rs_entry_flagged = false;
          rs_notarize_flagged = false;
          rs_decide_flagged = false;
        }
      in
      Hashtbl.add t.rounds round rs;
      Hashtbl.replace t.open_rounds round ();
      (* a fresh round opens a watchdog stage: pull the sweep horizon in *)
      t.next_deadline <- min t.next_deadline 0.;
      rs

let announce t ~time ev =
  match t.trace with Some tr -> Trace.emit tr ~time ev | None -> ()

let violate t ~time ~round ~what ~detail ~fatal =
  let v =
    {
      v_index = t.index - 1;
      v_time = time;
      v_round = round;
      v_what = what;
      v_detail = detail;
      v_fatal = fatal;
    }
  in
  t.violations <- v :: t.violations;
  announce t ~time (Trace.Monitor_violation { round; what; detail });
  if fatal && t.config.abort_on_violation then raise (Abort v)

let bump tbl key =
  let c = 1 + Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key c;
  c

let check_party t ~time ~round party =
  if t.n > 0 && (party < 1 || party > t.n) then
    violate t ~time ~round ~what:"party-out-of-range"
      ~detail:(Printf.sprintf "party %d outside 1..%d" party t.n)
      ~fatal:true

(* --- the liveness watchdog --------------------------------------------- *)

let stall_budget t = t.config.stall_factor *. t.config.delta

(* The three per-round stages, each (name, waiting-since, done?, flagged
   accessor).  Stage "entry" of round r starts when round r-1 notarizes
   (round 1: at run start); "notarize" when r is entered; "decide" when r
   is notarized. *)
let stage_start t round rs = function
  | "entry" ->
      if round = 1 then Some t.started_at
      else
        Option.bind (Hashtbl.find_opt t.rounds (round - 1)) (fun prev ->
            prev.rs_notarize)
  | "notarize" -> rs.rs_entry
  | "decide" -> rs.rs_notarize
  | _ -> None

let stage_done rs = function
  | "entry" -> rs.rs_entry <> None
  | "notarize" -> rs.rs_notarize <> None
  | "decide" -> rs.rs_decided <> None
  | _ -> true

let stage_flagged rs = function
  | "entry" -> rs.rs_entry_flagged
  | "notarize" -> rs.rs_notarize_flagged
  | "decide" -> rs.rs_decide_flagged
  | _ -> false

let set_stage_flagged rs = function
  | "entry" -> rs.rs_entry_flagged <- true
  | "notarize" -> rs.rs_notarize_flagged <- true
  | "decide" -> rs.rs_decide_flagged <- true
  | _ -> ()

let stages = [ "entry"; "notarize"; "decide" ]

(* Sweep every open round's open stages: flag those past their deadline,
   and recompute the earliest remaining deadline.  [next_deadline] is
   updated before any event is announced so a re-entrant observe of our
   own Monitor_stall cannot recurse into another sweep. *)
let sweep t ~time =
  let flagged = ref [] in
  let horizon = ref infinity in
  (* Fix a canonical (ascending round) sweep order: flagged stages are
     announced on the trace bus, so bucket order must not leak (D2). *)
  let open_rounds =
    Hashtbl.fold (fun round () acc -> round :: acc) t.open_rounds []
    |> List.sort Int.compare
  in
  List.iter
    (fun round ->
      match Hashtbl.find_opt t.rounds round with
      | None -> ()
      | Some rs ->
          List.iter
            (fun stage ->
              if not (stage_done rs stage || stage_flagged rs stage) then
                match stage_start t round rs stage with
                | None -> ()
                | Some since ->
                    let deadline = since +. stall_budget t in
                    if time >= deadline then begin
                      set_stage_flagged rs stage;
                      let st =
                        {
                          st_round = round;
                          st_stage = stage;
                          st_since = since;
                          st_flagged_at = time;
                          st_cleared_at = None;
                        }
                      in
                      t.stalls <- st :: t.stalls;
                      flagged := (round, stage, time -. since) :: !flagged
                    end
                    else horizon := min !horizon deadline)
            stages)
    open_rounds;
  t.next_deadline <- !horizon;
  List.iter
    (fun (round, stage, waited) ->
      announce t ~time (Trace.Monitor_stall { round; stage; waited }))
    (List.rev !flagged)

(* A milestone arrived for a stage the watchdog had flagged: record the
   recovery and re-arm the sweep horizon (the next stage just opened). *)
let clear_stage t ~time ~round rs stage =
  if stage_flagged rs stage then begin
    (match
       List.find_opt
         (fun st ->
           st.st_round = round && st.st_stage = stage
           && st.st_cleared_at = None)
         t.stalls
     with
    | Some st ->
        st.st_cleared_at <- Some time;
        announce t ~time
          (Trace.Monitor_clear { round; stage; waited = time -. st.st_since })
    | None -> ());
    match stage with
    | "entry" -> rs.rs_entry_flagged <- false
    | "notarize" -> rs.rs_notarize_flagged <- false
    | "decide" -> rs.rs_decide_flagged <- false
    | _ -> ()
  end;
  t.next_deadline <- min t.next_deadline (time +. stall_budget t)

(* --- per-event safety checks ------------------------------------------- *)

let on_round_entry t ~time ~party ~round =
  check_party t ~time ~round party;
  let rs = round_state t round in
  if rs.rs_entry = None then begin
    rs.rs_entry <- Some time;
    clear_stage t ~time ~round rs "entry"
  end;
  if round > t.max_entered then t.max_entered <- round

let on_notarize t ~time ~party ~round ~block =
  check_party t ~time ~round party;
  let rs = round_state t round in
  if rs.rs_notarize = None then begin
    rs.rs_notarize <- Some time;
    clear_stage t ~time ~round rs "notarize";
    (* round + 1's "entry" stage just started waiting *)
    t.next_deadline <- min t.next_deadline (time +. stall_budget t);
    ignore (round_state t (round + 1))
  end;
  if bump t.per_party_notarize (round, party) > 1 then
    violate t ~time ~round ~what:"duplicate-notarize"
      ~detail:(Printf.sprintf "party %d notarized round %d more than once" party round)
      ~fatal:false;
  if t.n > 0 && bump t.per_round_notarize round > t.n then
    violate t ~time ~round ~what:"notarize-overflow"
      ~detail:
        (Printf.sprintf "more than n=%d notarization events in round %d" t.n
           round)
      ~fatal:true;
  if not (List.mem block rs.rs_notarized) then begin
    rs.rs_notarized <- block :: rs.rs_notarized;
    (match rs.rs_notarized with
    | _ :: _ :: _ ->
        violate t ~time ~round ~what:"double-notarization"
          ~detail:
            (Printf.sprintf "round %d notarized distinct blocks {%s}" round
               (String.concat " " (List.rev rs.rs_notarized)))
          ~fatal:false
    | _ -> ());
    List.iter
      (fun f ->
        if f <> block then
          violate t ~time ~round ~what:"conflicting-notarization"
            ~detail:
              (Printf.sprintf
                 "round %d: block %s notarized but %s is finalized (P2)" round
                 block f)
            ~fatal:true)
      rs.rs_finalized
  end

let on_finalize t ~time ~party ~round ~block =
  check_party t ~time ~round party;
  let rs = round_state t round in
  if not (List.mem block rs.rs_finalized) then begin
    (match rs.rs_finalized with
    | f :: _ ->
        violate t ~time ~round ~what:"conflicting-finalization"
          ~detail:
            (Printf.sprintf "round %d finalized both %s and %s" round f block)
          ~fatal:true
    | [] -> ());
    rs.rs_finalized <- block :: rs.rs_finalized;
    List.iter
      (fun nz ->
        if nz <> block then
          violate t ~time ~round ~what:"conflicting-notarization"
            ~detail:
              (Printf.sprintf
                 "round %d: block %s finalized but %s is notarized (P2)" round
                 block nz)
            ~fatal:true)
      rs.rs_notarized
  end

let on_commit t ~time ~party ~round ~block =
  check_party t ~time ~round party;
  let rs = round_state t round in
  (match rs.rs_commit with
  | None -> rs.rs_commit <- Some block
  | Some c when c <> block ->
      violate t ~time ~round ~what:"fork"
        ~detail:
          (Printf.sprintf "round %d: party %d committed %s, others committed %s"
             round party block c)
        ~fatal:true
  | Some _ -> ());
  match Hashtbl.find_opt t.last_commit_round party with
  | Some last when round <= last ->
      violate t ~time ~round ~what:"commit-regression"
        ~detail:
          (Printf.sprintf
             "party %d committed round %d after already committing round %d"
             party round last)
        ~fatal:true
  | _ -> Hashtbl.replace t.last_commit_round party round

let on_decided t ~time ~round ~block =
  let rs = round_state t round in
  (match rs.rs_commit with
  | Some c when c <> block ->
      violate t ~time ~round ~what:"fork"
        ~detail:
          (Printf.sprintf "round %d decided %s but parties committed %s" round
             block c)
        ~fatal:true
  | _ -> rs.rs_commit <- Some block);
  (if rs.rs_notarized <> [] && not (List.mem block rs.rs_notarized) then
     violate t ~time ~round ~what:"unnotarized-decide"
       ~detail:
         (Printf.sprintf "round %d decided %s without an observed notarization"
            round block)
       ~fatal:false);
  if rs.rs_decided = None then begin
    rs.rs_decided <- Some time;
    clear_stage t ~time ~round rs "decide"
  end;
  (* the round is fully resolved: stop sweeping it *)
  Hashtbl.remove t.open_rounds round

let on_beacon_share t ~time ~party ~round =
  check_party t ~time ~round party;
  if bump t.per_party_beacon (round, party) > 1 then
    violate t ~time ~round ~what:"duplicate-beacon-share"
      ~detail:
        (Printf.sprintf "party %d released its round-%d beacon share twice"
           party round)
      ~fatal:false

(* --- the consumer ------------------------------------------------------ *)

let observe t ~time ev =
  t.index <- t.index + 1;
  match ev with
  | Trace.Monitor_violation _ | Trace.Monitor_stall _ | Trace.Monitor_clear _
    ->
      (* our own announcements, observed re-entrantly: count them so
         v_index matches the JSONL line number, change no state *)
      ()
  | ( Trace.Run_start _ | Trace.Run_end _ | Trace.Engine_dispatch _
    | Trace.Net_send _ | Trace.Net_deliver _ | Trace.Net_hold _
    | Trace.Gossip_publish _ | Trace.Gossip_request _ | Trace.Gossip_acquire _
    | Trace.Rbc_fragment _ | Trace.Rbc_echo _ | Trace.Rbc_reconstruct _
    | Trace.Rbc_inconsistent _ | Trace.Round_entry _ | Trace.Propose _
    | Trace.Notarize _ | Trace.Finalize _ | Trace.Beacon_share _
    | Trace.Commit _ | Trace.Block_decided _ | Trace.Protocol_error _
    | Trace.Fault_drop _
    | Trace.Fault_duplicate _ | Trace.Fault_reorder _ | Trace.Fault_link_down _
    | Trace.Fault_crash _ | Trace.Fault_recover _ | Trace.Adv_corrupt _
    | Trace.Adv_equivocate _ | Trace.Adv_withhold _ | Trace.Adv_censor _
    | Trace.Adv_delay _ | Trace.Adv_straggle _ | Trace.Resync_summary _
    | Trace.Resync_request _ | Trace.Resync_reply _ | Trace.Prof_span _
    | Trace.Prof_counter _ ) as ev ->
      (match ev with
      | Trace.Run_start { n; _ } ->
          t.n <- n;
          t.started_at <- time;
          ignore (round_state t 1)
      | Trace.Run_end _ ->
          t.ended <- true;
          sweep t ~time
      | Trace.Round_entry { party; round } -> on_round_entry t ~time ~party ~round
      | Trace.Propose { party; round } ->
          check_party t ~time ~round party;
          let rs = round_state t round in
          if rs.rs_propose = None then rs.rs_propose <- Some time
      | Trace.Notarize { party; round; block } ->
          on_notarize t ~time ~party ~round ~block
      | Trace.Finalize { party; round; block } ->
          on_finalize t ~time ~party ~round ~block
      | Trace.Beacon_share { party; round } -> on_beacon_share t ~time ~party ~round
      | Trace.Commit { party; round; block } ->
          on_commit t ~time ~party ~round ~block
      | Trace.Block_decided { round; block } -> on_decided t ~time ~round ~block
      | Trace.Protocol_error { party; round; what } ->
          (* a party reported an internal should-be-impossible condition and
             skipped the step; surface it as a recorded, non-fatal violation *)
          violate t ~time ~round ~what:"protocol-error"
            ~detail:(Printf.sprintf "party %d: %s" party what)
            ~fatal:false
      | Trace.Fault_recover { party } ->
          (* a recovered party legitimately re-releases the beacon shares
             for its current rounds; forget its counters so the rebroadcast
             is not flagged as equivocation *)
          let stale =
            Hashtbl.fold
              (fun ((_, p) as key) _ acc -> if p = party then key :: acc else acc)
              t.per_party_beacon []
            |> List.sort (fun (r1, p1) (r2, p2) ->
                   match Int.compare r1 r2 with
                   | 0 -> Int.compare p1 p2
                   | c -> c)
          in
          List.iter (Hashtbl.remove t.per_party_beacon) stale
      | Trace.Adv_corrupt { party; _ } ->
          (* a declared corruption: remember the party so duplicate-share
             warnings it causes can be attributed (see corrupt_parties) *)
          Hashtbl.replace t.corrupt party ()
      | Trace.Adv_equivocate _ | Trace.Adv_withhold _ | Trace.Adv_censor _
      | Trace.Adv_delay _ | Trace.Adv_straggle _
      | Trace.Engine_dispatch _ | Trace.Net_send _ | Trace.Net_deliver _
      | Trace.Net_hold _ | Trace.Gossip_publish _ | Trace.Gossip_request _
      | Trace.Gossip_acquire _ | Trace.Rbc_fragment _ | Trace.Rbc_echo _
      | Trace.Rbc_reconstruct _ | Trace.Rbc_inconsistent _
      | Trace.Monitor_violation _ | Trace.Monitor_stall _
      | Trace.Monitor_clear _ | Trace.Fault_drop _ | Trace.Fault_duplicate _
      | Trace.Fault_reorder _ | Trace.Fault_link_down _ | Trace.Fault_crash _
      | Trace.Resync_summary _ | Trace.Resync_request _
      | Trace.Resync_reply _ | Trace.Prof_span _ | Trace.Prof_counter _ ->
          ());
      if time >= t.next_deadline && not t.ended then sweep t ~time

let attach ?(config = default_config ~delta:1.0 ()) trace =
  let t = create ~trace config in
  Trace.subscribe ~all:true trace (observe t);
  t

(* --- queries ----------------------------------------------------------- *)

let events_seen t = t.index
let violations t = List.rev t.violations
let fatal_violations t = List.filter (fun v -> v.v_fatal) (violations t)
let warnings t = List.filter (fun v -> not v.v_fatal) (violations t)
let stalls t = List.rev t.stalls

let corrupt_parties t =
  Hashtbl.fold (fun p () acc -> p :: acc) t.corrupt []
  |> List.sort Int.compare

let stalled_rounds t =
  List.sort_uniq compare
    (List.filter_map
       (fun st -> if st.st_cleared_at = None then Some st.st_round else None)
       t.stalls)

let ok t = not (List.exists (fun v -> v.v_fatal) t.violations)

let summary t =
  let fatal = List.length (fatal_violations t) in
  let warn = List.length (warnings t) in
  let stalls_n = List.length t.stalls in
  let open_n = List.length (stalled_rounds t) in
  if fatal = 0 && warn = 0 && stalls_n = 0 then
    Printf.sprintf "monitor: clean (%d events)" t.index
  else
    Printf.sprintf
      "monitor: %d fatal violation%s, %d warning%s, %d stall%s (%d unrecovered)"
      fatal
      (if fatal = 1 then "" else "s")
      warn
      (if warn = 1 then "" else "s")
      stalls_n
      (if stalls_n = 1 then "" else "s")
      open_n

let report t =
  let b = Buffer.create 256 in
  Buffer.add_string b (summary t);
  Buffer.add_char b '\n';
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "  %s %-26s round %-4d t=%-10.4f event %-7d %s\n"
           (if v.v_fatal then "FATAL" else "warn ")
           v.v_what v.v_round v.v_time v.v_index v.v_detail))
    (violations t);
  List.iter
    (fun st ->
      Buffer.add_string b
        (Printf.sprintf "  stall %-10s round %-4d waited %.4fs since t=%.4f %s\n"
           st.st_stage st.st_round
           (st.st_flagged_at -. st.st_since)
           st.st_since
           (match st.st_cleared_at with
           | Some c -> Printf.sprintf "(recovered at t=%.4f)" c
           | None -> "(unrecovered)")))
    (stalls t);
  Buffer.contents b
