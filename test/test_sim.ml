(* Simulator substrate tests: rng, engine, network, metrics. *)

let test_rng_deterministic () =
  let a = Icc_sim.Rng.create 42 and b = Icc_sim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Icc_sim.Rng.bits61 a) (Icc_sim.Rng.bits61 b)
  done

let test_rng_int_bounds () =
  let r = Icc_sim.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Icc_sim.Rng.int r 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_shuffle_permutes () =
  let r = Icc_sim.Rng.create 3 in
  let arr = Array.init 20 Fun.id in
  Icc_sim.Rng.shuffle_in_place r arr;
  Alcotest.(check (list int)) "same multiset"
    (List.init 20 Fun.id)
    (List.sort compare (Array.to_list arr))

let test_engine_pop_order () =
  let e = Icc_sim.Engine.create () in
  let log = ref [] in
  List.iteri
    (fun i time -> Icc_sim.Engine.schedule_at e ~time (fun () -> log := i :: !log))
    [ 3.; 1.; 2.; 1.; 0.5 ];
  Icc_sim.Engine.run e;
  Alcotest.(check (list int)) "pop order" [ 4; 1; 3; 2; 0 ] (List.rev !log)

let test_engine_runs_in_order () =
  let e = Icc_sim.Engine.create () in
  let log = ref [] in
  Icc_sim.Engine.schedule e ~delay:2. (fun () -> log := 2 :: !log);
  Icc_sim.Engine.schedule e ~delay:1. (fun () ->
      log := 1 :: !log;
      Icc_sim.Engine.schedule e ~delay:0.5 (fun () -> log := 15 :: !log));
  Icc_sim.Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 15; 2 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 2. (Icc_sim.Engine.now e)

let test_engine_until () =
  let e = Icc_sim.Engine.create () in
  let hits = ref 0 in
  for i = 1 to 10 do
    Icc_sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> incr hits)
  done;
  Icc_sim.Engine.run ~until:5.5 e;
  Alcotest.(check int) "only first five" 5 !hits;
  Alcotest.(check (float 1e-9)) "clock parked at until" 5.5 (Icc_sim.Engine.now e);
  Icc_sim.Engine.run e;
  Alcotest.(check int) "rest after resume" 10 !hits

let test_engine_rejects_past () =
  let e = Icc_sim.Engine.create () in
  Icc_sim.Engine.schedule e ~delay:1. (fun () ->
      Alcotest.check_raises "past"
        (Invalid_argument
           "Engine.schedule_at: time 0.500000 is in the past (now 1.000000)")
        (fun () -> Icc_sim.Engine.schedule_at e ~time:0.5 (fun () -> ())));
  Icc_sim.Engine.run e

let test_engine_rejects_nan () =
  let e = Icc_sim.Engine.create () in
  let nan_time = Invalid_argument "Engine.schedule_at: time is NaN" in
  Alcotest.check_raises "schedule_at" nan_time (fun () ->
      Icc_sim.Engine.schedule_at e ~time:Float.nan (fun () -> ()));
  Alcotest.check_raises "schedule" nan_time (fun () ->
      Icc_sim.Engine.schedule e ~delay:Float.nan (fun () -> ()));
  Alcotest.(check int) "nothing queued" 0 (Icc_sim.Engine.pending e);
  (* -0 still counts as the current time 0 and shares a run with +0 *)
  let log = ref [] in
  Icc_sim.Engine.schedule_at e ~time:0. (fun () -> log := 0 :: !log);
  Icc_sim.Engine.schedule_at e ~time:(-0.) (fun () -> log := 1 :: !log);
  Icc_sim.Engine.run e;
  Alcotest.(check (list int)) "-0 runs as 0" [ 0; 1 ] (List.rev !log)

(* The WAN pattern: about a thousand queued events, each at a timestamp of
   its own (t + k * 1000.5 never repeats for integer starts t < 1000).
   After warm-up the engine's per-event cost is deterministic, so a budget
   on minor words catches a hot-path allocation regression. *)
let test_engine_alloc_budget () =
  let e = Icc_sim.Engine.create () in
  let rec tick () = Icc_sim.Engine.schedule e ~delay:1000.5 tick in
  for t = 0 to 999 do
    Icc_sim.Engine.schedule_at e ~time:(float_of_int t) tick
  done;
  Icc_sim.Engine.run ~max_events:20_000 e;
  let events = 100_000 in
  let before = Gc.minor_words () in
  Icc_sim.Engine.run ~max_events:(20_000 + events) e;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "ran" (20_000 + events) (Icc_sim.Engine.processed e);
  let per_event = words /. float_of_int events in
  if per_event > 10. then
    Alcotest.failf "%.1f minor words per event (budget 10)" per_event

let make_net ?(n = 4) ?(delay = 0.1) () =
  let rng = Icc_sim.Rng.create 0 in
  let env =
    Icc_sim.Transport.env ~rng ~net_rng:rng ~delay:(Fixed_delay delay) ~n ()
  in
  let net = Icc_sim.Transport.network_of env in
  (env.Icc_sim.Transport.engine, env.Icc_sim.Transport.metrics, net)

let test_network_broadcast_delivery () =
  let e, m, net = make_net () in
  let got : (int * string) list ref = ref [] in
  Icc_sim.Network.set_handler net (fun ~dst ~src:_ msg ->
      got := (dst, msg) :: !got);
  Icc_sim.Network.broadcast net ~src:1 ~size:100 ~kind:"blk" "hello";
  Icc_sim.Engine.run e;
  Alcotest.(check int) "all four got it" 4 (List.length !got);
  (* traffic counts only the 3 remote copies *)
  Alcotest.(check int) "bytes" 300 (Icc_sim.Metrics.total_bytes m);
  Alcotest.(check int) "msgs" 3 (Icc_sim.Metrics.total_msgs m);
  Alcotest.(check int) "kind" 3 (Icc_sim.Metrics.msgs_of_kind m "blk")

let test_network_self_delivery_immediate () =
  let e, _, net = make_net ~delay:5. () in
  let at = ref nan in
  Icc_sim.Network.set_handler net (fun ~dst ~src:_ _ ->
      if dst = 2 then at := Icc_sim.Engine.now e);
  Icc_sim.Network.unicast net ~src:2 ~dst:2 ~size:10 ~kind:"x" "m";
  Icc_sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "immediate" 0. !at

let test_network_hold_until () =
  let e, _, net = make_net ~delay:0.1 () in
  let at = ref nan in
  Icc_sim.Network.set_handler net (fun ~dst ~src:_ _ ->
      if dst = 2 then at := Icc_sim.Engine.now e);
  Icc_sim.Network.hold_all_until net 10.;
  Icc_sim.Network.unicast net ~src:1 ~dst:2 ~size:10 ~kind:"x" "m";
  Icc_sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "released at 10 + delay" 10.1 !at

let test_network_link_hold () =
  let e, _, net = make_net ~delay:0.1 () in
  let times = ref [] in
  Icc_sim.Network.set_handler net (fun ~dst ~src:_ _ ->
      times := (dst, Icc_sim.Engine.now e) :: !times);
  (* partition: messages into party 3 held until t=5 *)
  Icc_sim.Network.set_link_hold net (fun _src dst -> if dst = 3 then 5. else 0.);
  Icc_sim.Network.broadcast net ~src:1 ~size:1 ~kind:"x" "m";
  Icc_sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "into 3 held" 5.1 (List.assoc 3 !times);
  Alcotest.(check (float 1e-9)) "into 2 normal" 0.1 (List.assoc 2 !times)

let test_network_send_time_pricing () =
  (* Regression pin for the release semantics documented on
     Network.set_delay_model: every transmission is priced at send time —
     the delay comes from the model installed at the moment of unicast and
     the release floor is read at that same moment.  Swapping the model,
     shortening a hold or extending one afterwards never re-prices a
     message already in flight or already held. *)
  let e, _, net = make_net ~delay:0.1 () in
  let times = ref [] in
  Icc_sim.Network.set_handler net (fun ~dst:_ ~src:_ msg ->
      times := (msg, Icc_sim.Engine.now e) :: !times);
  let at msg = List.assoc msg !times in
  (* 1. model swap does not move an in-flight message *)
  Icc_sim.Network.unicast net ~src:1 ~dst:2 ~size:1 ~kind:"x" "before-swap";
  Icc_sim.Network.set_delay_model net (Icc_sim.Network.Fixed 3.);
  Icc_sim.Network.unicast net ~src:1 ~dst:2 ~size:1 ~kind:"x" "after-swap";
  (* 2. held message keeps its original release even if the hold is
     shortened later; messages sent after the shortening use the new
     hold state *)
  Icc_sim.Network.hold_all_until net 10.;
  Icc_sim.Network.unicast net ~src:1 ~dst:2 ~size:1 ~kind:"x" "held";
  Icc_sim.Engine.schedule_at e ~time:4. (fun () ->
      Icc_sim.Network.hold_all_until net 0.;
      Icc_sim.Network.unicast net ~src:1 ~dst:2 ~size:1 ~kind:"x" "post-heal";
      (* 3. extending the hold after a send does not recapture it *)
      Icc_sim.Network.unicast net ~src:1 ~dst:2 ~size:1 ~kind:"x" "escaped";
      Icc_sim.Network.hold_all_until net 50.);
  Icc_sim.Engine.run ~until:60. e;
  Alcotest.(check (float 1e-9)) "in-flight message not re-priced" 0.1
    (at "before-swap");
  Alcotest.(check (float 1e-9)) "later send uses the new model" 3.
    (at "after-swap");
  Alcotest.(check (float 1e-9)) "held message keeps original release" 13.
    (at "held");
  Alcotest.(check (float 1e-9)) "send after heal is unheld" 7.
    (at "post-heal");
  Alcotest.(check (float 1e-9)) "extending a hold does not recapture" 7.
    (at "escaped")

let test_wan_matrix_symmetric () =
  let r = Icc_sim.Rng.create 1 in
  let m = Icc_sim.Network.wan_matrix r ~n:13 ~rtt_lo:0.006 ~rtt_hi:0.110 in
  for i = 1 to 13 do
    for j = 1 to 13 do
      Alcotest.(check (float 1e-12)) "symmetric" m.(i).(j) m.(j).(i);
      if i <> j then
        Alcotest.(check bool) "in range" true
          (m.(i).(j) >= 0.003 && m.(i).(j) <= 0.055)
    done
  done

let test_metrics_percentile () =
  let l = [ 5.; 1.; 3.; 2.; 4. ] in
  Alcotest.(check (float 1e-9)) "p50" 3. (Icc_sim.Metrics.percentile 50. l);
  Alcotest.(check (float 1e-9)) "p100" 5. (Icc_sim.Metrics.percentile 100. l);
  Alcotest.(check (float 1e-9)) "mean" 3. (Icc_sim.Metrics.mean l)

let prop_engine_fifo_at_same_time =
  QCheck.Test.make ~name:"engine preserves insertion order at equal times"
    ~count:50 (QCheck.int_range 2 30) (fun k ->
      let e = Icc_sim.Engine.create () in
      let log = ref [] in
      for i = 0 to k - 1 do
        Icc_sim.Engine.schedule e ~delay:1. (fun () -> log := i :: !log)
      done;
      Icc_sim.Engine.run e;
      List.rev !log = List.init k Fun.id)

(* Model test: dispatch order is a stable sort on (time, seq).  Times come
   from four values, so ties dominate: handlers schedule at [now] (into the
   run being drained), onto times that already have an older queued run,
   and onto fresh times, and [run] stops on [~until] (often a tie time),
   [~max_events] and [Engine.stop].  Event [s] (its insertion seq) follows
   [plans.(s mod len)]: schedule a child at [max now v] for each value
   [v], then maybe stop.  The model replays the same program on a sorted
   list. *)
let tie_times = [| 0.; 1.; 2.; 3. |]
let max_scheduled = 150

type model = {
  mutable m_now : float;
  mutable m_seq : int;
  mutable m_queue : (float * int) list; (* sorted by (time, seq) *)
  mutable m_processed : int;
  mutable m_log : (float * int * int * float) list;
}

let engine_matches_model (plans, phases) =
  let plan s = plans.(s mod Array.length plans) in
  let at now v = Float.max now tie_times.(v) in
  (* engine side *)
  let e = Icc_sim.Engine.create () in
  let seen = ref None and log = ref [] in
  Icc_sim.Engine.set_observer e (fun ~time ~seq -> seen := Some (time, seq));
  let scheduled = ref 0 in
  let rec schedule time =
    if !scheduled < max_scheduled then begin
      let s = !scheduled in
      incr scheduled;
      Icc_sim.Engine.schedule_at e ~time (fun () -> handle s)
    end
  and handle s =
    let time, seq = Option.get !seen in
    log := (time, seq, s, Icc_sim.Engine.now e) :: !log;
    let children, stops = plan s in
    List.iter (fun v -> schedule (at (Icc_sim.Engine.now e) v)) children;
    if stops then Icc_sim.Engine.stop e
  in
  (* model side *)
  let m =
    { m_now = 0.; m_seq = 0; m_queue = []; m_processed = 0; m_log = [] }
  in
  let m_schedule time =
    if m.m_seq < max_scheduled then begin
      let rec ins = function
        | (t, _) :: _ as q when time < t -> (time, m.m_seq) :: q
        | x :: q -> x :: ins q
        | [] -> [ (time, m.m_seq) ]
      in
      m.m_queue <- ins m.m_queue;
      m.m_seq <- m.m_seq + 1
    end
  in
  let rec m_run until max_events =
    if m.m_processed < max_events then
      match m.m_queue with
      | [] -> ()
      | (time, _) :: _ when time > until -> m.m_now <- until
      | (time, s) :: rest ->
          m.m_queue <- rest;
          m.m_now <- time;
          m.m_processed <- m.m_processed + 1;
          m.m_log <- (time, s, s, time) :: m.m_log;
          let children, stops = plan s in
          List.iter (fun v -> m_schedule (at m.m_now v)) children;
          if not stops then m_run until max_events
  in
  List.for_all
    (fun (ext, until, budget) ->
      List.iter (fun v -> schedule (at (Icc_sim.Engine.now e) v)) ext;
      List.iter (fun v -> m_schedule (at m.m_now v)) ext;
      let until =
        match until with Some v -> at m.m_now v | None -> infinity
      in
      let max_events =
        match budget with Some k -> m.m_processed + k | None -> max_int
      in
      Icc_sim.Engine.run ~until ~max_events e;
      m_run until max_events;
      !log = m.m_log
      && Float.equal (Icc_sim.Engine.now e) m.m_now
      && Icc_sim.Engine.pending e = List.length m.m_queue
      && Icc_sim.Engine.processed e = m.m_processed)
    phases

let prop_engine_matches_model =
  let open QCheck in
  let value = Gen.int_bound (Array.length tie_times - 1) in
  let plan =
    Gen.(pair (list_size (int_bound 3) value) (map (( = ) 0) (int_bound 9)))
  in
  let phase =
    Gen.(
      triple (list_size (int_bound 5) value) (opt value) (opt (int_bound 8)))
  in
  let print =
    Print.(
      pair
        (array (pair (list int) bool))
        (list (triple (list int) (option int) (option int))))
  in
  Test.make ~name:"engine dispatch = stable sort on (time, seq)" ~count:500
    (make ~print
       Gen.(pair (array_size (int_range 1 8) plan) (list_size (int_range 1 4) phase)))
    engine_matches_model

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "engine pop order" `Quick test_engine_pop_order;
    Alcotest.test_case "engine order" `Quick test_engine_runs_in_order;
    Alcotest.test_case "engine until" `Quick test_engine_until;
    Alcotest.test_case "engine rejects past" `Quick test_engine_rejects_past;
    Alcotest.test_case "engine rejects NaN" `Quick test_engine_rejects_nan;
    Alcotest.test_case "engine allocation budget" `Quick
      test_engine_alloc_budget;
    Alcotest.test_case "broadcast delivery" `Quick test_network_broadcast_delivery;
    Alcotest.test_case "self delivery" `Quick test_network_self_delivery_immediate;
    Alcotest.test_case "hold until" `Quick test_network_hold_until;
    Alcotest.test_case "link hold" `Quick test_network_link_hold;
    Alcotest.test_case "send-time pricing of delay and holds" `Quick
      test_network_send_time_pricing;
    Alcotest.test_case "wan matrix" `Quick test_wan_matrix_symmetric;
    Alcotest.test_case "metrics percentile" `Quick test_metrics_percentile;
    QCheck_alcotest.to_alcotest prop_engine_fifo_at_same_time;
    QCheck_alcotest.to_alcotest prop_engine_matches_model;
  ]
