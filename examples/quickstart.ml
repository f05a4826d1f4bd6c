(* Quickstart: a 4-party ICC0 deployment on a simulated LAN.

   Builds keys for n = 4 parties (t = 1), runs the protocol for 10 simulated
   seconds under a 100 req/s client workload, and prints the committed chain
   prefix together with the headline metrics.

     dune exec examples/quickstart.exe *)

let () =
  let scenario =
    {
      (Icc_core.Runner.default_scenario ~n:4 ~seed:42) with
      Icc_core.Runner.duration = 10.;
      delay = Icc_core.Runner.Fixed_delay 0.05; (* 50 ms one-way *)
      epsilon = 0.2; (* governor: keeps the chain at ~3 blocks/s *)
      delta_bnd = 0.5; (* partial-synchrony bound *)
      workload = Icc_core.Runner.Load { rate_per_s = 100.; cmd_size = 1024 };
    }
  in
  let result = Icc_core.Runner.run scenario in

  print_endline "=== ICC0 quickstart: 4 parties, 50 ms network ===";
  Printf.printf "simulated time        %.1f s\n" result.duration;
  Printf.printf "rounds decided        %d\n" result.rounds_decided;
  Printf.printf "block rate            %.2f blocks/s\n" result.blocks_per_s;
  Printf.printf "commit latency        %.3f s (propose -> all parties commit)\n"
    result.mean_latency;
  Printf.printf "commands committed    %d (mean latency %.3f s)\n"
    result.commands_committed result.mean_command_latency;
  Printf.printf "safety (monitor)      %b\n" result.safety_ok;
  Printf.printf "deadlock-freeness P1  %b\n" result.p1_ok;
  Printf.printf "total traffic         %.2f MB (%d messages)\n"
    (float_of_int (Icc_sim.Metrics.total_bytes result.metrics) /. 1e6)
    (Icc_sim.Metrics.total_msgs result.metrics);

  print_endline "\nfirst 10 committed blocks (party 1's output):";
  (match result.outputs with
  | (_, chain) :: _ ->
      List.iteri
        (fun i (b : Icc_core.Block.t) ->
          if i < 10 then
            Printf.printf "  round %-3d proposer P%d  %d commands  %6d bytes  %s\n"
              b.Icc_core.Block.round b.Icc_core.Block.proposer
              (List.length b.Icc_core.Block.payload.Icc_core.Types.commands)
              (Icc_core.Types.payload_size b.Icc_core.Block.payload)
              (String.sub
                 (Icc_crypto.Sha256.to_hex (Icc_core.Block.hash b))
                 0 12))
        chain
  | [] -> print_endline "  (no output)");

  print_endline "\nall parties committed identical chains:";
  List.iter
    (fun (id, chain) ->
      Printf.printf "  party %d: %d blocks\n" id (List.length chain))
    result.outputs
