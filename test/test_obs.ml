(* Icc_obs — metrics registry and span profiler.

   The registry is process-global, so every test uses its own metric
   names; profiler tests run under [with_profiler], which guarantees the
   toggle ends up off and the recorded data dropped whatever happens. *)

module Registry = Icc_obs.Registry
module Profile = Icc_obs.Profile

let with_profiler f =
  Fun.protect
    ~finally:(fun () ->
      Profile.set_enabled false;
      Profile.reset ())
    (fun () ->
      Profile.reset ();
      Profile.set_enabled true;
      f ())

(* ------------------------------------------------------------ registry *)

let test_counter_basics () =
  let c = Registry.counter "t_obs_counter_basics" in
  Alcotest.(check int) "starts at zero" 0 (Registry.value c);
  Registry.inc c;
  Registry.inc c;
  Registry.add c 40;
  Alcotest.(check int) "inc/add accumulate" 42 (Registry.value c);
  (* registration is idempotent: same name yields the same cell *)
  let c' = Registry.counter "t_obs_counter_basics" in
  Registry.inc c';
  Alcotest.(check int) "same name, same counter" 43 (Registry.value c)

let test_registry_reset () =
  let c = Registry.counter "t_obs_reset_c" in
  Registry.add c 7;
  Alcotest.(check (list (pair string int)))
    "counters () lists it"
    [ ("t_obs_reset_c", 7) ]
    (List.filter
       (fun (name, _) -> String.equal name "t_obs_reset_c")
       (Registry.counters ()));
  Registry.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Registry.value c)

(* The exposition is every counter, sorted by registered name; other
   tests' counters share the process-global registry, so pin only this
   test's lines.  The sort key is the raw name, so "t_obs_prom-c" ('-' is
   0x2d) precedes "t_obs_prom_b" ('_' is 0x5f) although both print with
   an underscore. *)
let test_prometheus_exposition () =
  let c = Registry.counter "t_obs_prom-c" (* '-' must be sanitized *) in
  let b = Registry.counter "t_obs_prom_b" in
  Registry.add c 3;
  Registry.add b 12;
  let ours =
    String.split_on_char '\n' (Registry.to_prometheus ())
    |> List.filter (fun line ->
           String.starts_with ~prefix:"t_obs_prom_" line
           || String.starts_with ~prefix:"# TYPE t_obs_prom_" line)
  in
  Alcotest.(check (list string))
    "name-sorted, sanitised, TYPE line before each sample"
    [
      "# TYPE t_obs_prom_c counter";
      "t_obs_prom_c 3";
      "# TYPE t_obs_prom_b counter";
      "t_obs_prom_b 12";
    ]
    ours

(* ------------------------------------------------------------ profiler *)

let test_span_disabled_is_transparent () =
  Profile.set_enabled false;
  Profile.reset ();
  let r = Profile.span "t_obs.off" (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk result returned" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Profile.stats ()))

let test_span_nesting_and_folding () =
  with_profiler (fun () ->
      let r =
        Profile.span "t_obs.outer" (fun () ->
            Profile.span "t_obs.inner" (fun () -> ());
            Profile.span "t_obs.inner" (fun () -> ());
            "done")
      in
      Alcotest.(check string) "result flows through" "done" r;
      let stat name =
        match
          List.find_opt (fun s -> String.equal s.Profile.sp_name name)
            (Profile.stats ())
        with
        | Some s -> s
        | None -> Alcotest.failf "span %s not recorded" name
      in
      let outer = stat "t_obs.outer" and inner = stat "t_obs.inner" in
      Alcotest.(check int) "outer count" 1 outer.Profile.sp_count;
      Alcotest.(check int) "inner count" 2 inner.Profile.sp_count;
      Alcotest.(check bool) "outer total covers inner" true
        (outer.Profile.sp_total_s >= inner.Profile.sp_total_s);
      Alcotest.(check bool) "self excludes children" true
        (outer.Profile.sp_self_s <= outer.Profile.sp_total_s);
      (* folded view has the stacked path, not just leaf names *)
      let paths = List.map (fun (p, _, _) -> p) (Profile.folded ()) in
      Alcotest.(check bool) "folded path outer;inner" true
        (List.mem "t_obs.outer;t_obs.inner" paths);
      Alcotest.(check bool) "folded path outer" true
        (List.mem "t_obs.outer" paths);
      (* folded_lines is 'path space integer' per line *)
      String.split_on_char '\n' (Profile.folded_lines ())
      |> List.iter (fun line ->
             if String.length line > 0 then
               match String.rindex_opt line ' ' with
               | None -> Alcotest.failf "no separator in %S" line
               | Some i ->
                   let count =
                     String.sub line (i + 1) (String.length line - i - 1)
                   in
                   Alcotest.(check bool)
                     (Printf.sprintf "numeric self-us in %S" line)
                     true
                     (Option.is_some (int_of_string_opt count))))

let test_span_exception_unwinds () =
  with_profiler (fun () ->
      (try
         Profile.span "t_obs.raiser" (fun () -> failwith "boom")
       with Failure _ -> ());
      (* the stack unwound: a new top-level span nests under nothing *)
      Profile.span "t_obs.after" (fun () -> ());
      let paths = List.map (fun (p, _, _) -> p) (Profile.folded ()) in
      Alcotest.(check bool) "raising span recorded" true
        (List.mem "t_obs.raiser" paths);
      Alcotest.(check bool) "next span is top-level" true
        (List.mem "t_obs.after" paths);
      Alcotest.(check bool) "not nested under the raiser" false
        (List.mem "t_obs.raiser;t_obs.after" paths))

let test_context_attribution () =
  with_profiler (fun () ->
      Profile.set_round 3;
      Profile.set_party 7;
      Profile.span "t_obs.ctx" (fun () -> ());
      Profile.set_round 4;
      Profile.span "t_obs.ctx" (fun () -> ());
      let rounds = List.map fst (Profile.by_round ()) in
      Alcotest.(check (list int)) "rounds charged" [ 3; 4 ] rounds;
      let parties = List.map fst (Profile.by_party ()) in
      Alcotest.(check (list int)) "party charged" [ 7 ] parties;
      match List.assoc_opt 3 (Profile.by_round ()) with
      | Some [ (name, self) ] ->
          Alcotest.(check string) "span name in context" "t_obs.ctx" name;
          Alcotest.(check bool) "self-time non-negative" true (self >= 0.)
      | _ -> Alcotest.fail "round 3 should hold exactly the one span")

(* ------------------------------- Metrics memoized percentile view ------ *)

let test_latency_percentile_invalidation () =
  let m = Icc_sim.Metrics.create 4 in
  Alcotest.(check bool) "empty distribution is nan" true
    (Float.is_nan (Icc_sim.Metrics.latency_percentile m 50.));
  Icc_sim.Metrics.record_latency m 3.0;
  Icc_sim.Metrics.record_latency m 1.0;
  Icc_sim.Metrics.record_latency m 2.0;
  Alcotest.(check (float 0.)) "p50 of {1,2,3}" 2.0
    (Icc_sim.Metrics.latency_percentile m 50.);
  Alcotest.(check (float 0.)) "p100 of {1,2,3}" 3.0
    (Icc_sim.Metrics.latency_percentile m 100.);
  (* the second query hit the memoized view; recording must invalidate it *)
  Icc_sim.Metrics.record_latency m 10.0;
  Icc_sim.Metrics.record_latency m 11.0;
  Alcotest.(check (float 0.)) "p100 sees the new maximum" 11.0
    (Icc_sim.Metrics.latency_percentile m 100.);
  Alcotest.(check (float 0.)) "p50 re-sorted over 5 samples" 3.0
    (Icc_sim.Metrics.latency_percentile m 50.)

let suite =
  [
    Alcotest.test_case "registry: counter basics" `Quick test_counter_basics;
    Alcotest.test_case "registry: snapshot and reset" `Quick
      test_registry_reset;
    Alcotest.test_case "registry: prometheus exposition" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "profiler: disabled span is transparent" `Quick
      test_span_disabled_is_transparent;
    Alcotest.test_case "profiler: nesting and folded stacks" `Quick
      test_span_nesting_and_folding;
    Alcotest.test_case "profiler: exception unwinds the stack" `Quick
      test_span_exception_unwinds;
    Alcotest.test_case "profiler: per-round/per-party attribution" `Quick
      test_context_attribution;
    Alcotest.test_case "metrics: latency percentile memo invalidation" `Quick
      test_latency_percentile_invalidation;
  ]
