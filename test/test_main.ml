(* Aggregated test runner for the ADAPTIVE reproduction. *)

let () =
  Alcotest.run "adaptive"
    (Test_sim.suite @ Test_buf.suite @ Test_net.suite @ Test_mech.suite
   @ Test_core.suite @ Test_session.suite @ Test_mantts.suite
   @ Test_workloads.suite @ Test_payload.suite @ Test_random.suite
   @ Test_integration.suite @ Test_chaos.suite @ Test_fleet.suite
   @ Test_swarm.suite @ Test_megaswarm.suite @ Test_steer.suite
   @ Test_golden.suite @ Test_lifecycle.suite @ Test_recovery.suite
   @ Test_transmission.suite @ Test_reporting.suite)
