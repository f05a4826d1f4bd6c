(* Domain-safety runtime shims and the state they guard: the Dls / Lock
   4.14-compatible wrappers, the Atomic-backed Registry metrics, and the
   domain-local fixed-base cache (pow_cached and base_pow must agree with
   generic pow). *)

module Group = Icc_crypto.Group
module Registry = Icc_obs.Registry

let rng = Icc_sim.Rng.create 0xd00d
let rand_bits () = Icc_sim.Rng.bits61 rng

let test_dls_roundtrip () =
  let key = Icc_obs.Dls.new_key (fun () -> ref 41) in
  let cell = Icc_obs.Dls.get key in
  Alcotest.(check int) "initial" 41 !cell;
  incr cell;
  Alcotest.(check int) "same cell" 42 !(Icc_obs.Dls.get key);
  Icc_obs.Dls.set key (ref 7);
  Alcotest.(check int) "replaced" 7 !(Icc_obs.Dls.get key)

let test_lock_with_lock () =
  let lock = Icc_obs.Lock.create () in
  Alcotest.(check int) "returns" 5 (Icc_obs.Lock.with_lock lock (fun () -> 5));
  (* Released on exception: a second section must still run. *)
  (try Icc_obs.Lock.with_lock lock (fun () -> failwith "boom") with
  | Failure _ -> ());
  Alcotest.(check int) "reentry after raise" 6
    (Icc_obs.Lock.with_lock lock (fun () -> 6))

let test_registry_atomic_counter () =
  let c = Registry.counter "test_domain.counter" in
  let before = Registry.value c in
  for _ = 1 to 100 do
    Registry.inc c
  done;
  Registry.add c 17;
  Alcotest.(check int) "inc+add" (before + 117) (Registry.value c);
  Registry.reset ();
  Alcotest.(check int) "reset" 0 (Registry.value c)

let test_registry_gauge () =
  let g = Registry.gauge "test_domain.gauge" in
  Registry.set_gauge g 2.5;
  Alcotest.(check (float 1e-9)) "set" 2.5 (Registry.gauge_value g)

let test_pow_cached_agrees_with_pow () =
  let bases =
    [ Group.generator; Group.base_pow 123; Group.base_pow 9876543 ]
  in
  List.iter
    (fun base ->
      for _ = 1 to 32 do
        let e = Group.random_scalar rand_bits in
        Alcotest.(check bool)
          "pow_cached = pow" true
          (Group.elt_equal (Group.pow_cached base e) (Group.pow base e))
      done)
    bases

let test_base_pow_agrees_with_pow () =
  (* The generator's pinned fixed-base table against square-and-multiply. *)
  for _ = 1 to 64 do
    let e = Group.random_scalar rand_bits in
    Alcotest.(check bool)
      "base_pow = pow g" true
      (Group.elt_equal (Group.base_pow e) (Group.pow Group.generator e))
  done

let suite =
  [
    Alcotest.test_case "dls roundtrip" `Quick test_dls_roundtrip;
    Alcotest.test_case "lock with_lock" `Quick test_lock_with_lock;
    Alcotest.test_case "registry atomic counter" `Quick
      test_registry_atomic_counter;
    Alcotest.test_case "registry gauge" `Quick test_registry_gauge;
    Alcotest.test_case "pow_cached agrees with pow" `Quick
      test_pow_cached_agrees_with_pow;
    Alcotest.test_case "base_pow agrees with pow" `Quick
      test_base_pow_agrees_with_pow;
  ]
