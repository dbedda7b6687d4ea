let () =
  Alcotest.run "soar-psme"
    [
      ("support", Test_support.suite);
      ("obs", Test_obs.suite);
      ("telemetry", Test_telemetry.suite);
      ("ops5", Test_ops5.suite);
      ("rete", Test_rete.suite);
      ("soar", Test_soar.suite);
      ("engine", Test_engine.suite);
      ("workloads", Test_workloads.suite);
      ("future-work", Test_future_work.suite);
      ("harness", Test_harness.suite);
      ("properties", Test_props.suite);
      ("perf-kernel", Test_perf_kernel.suite);
      ("check", Test_check.suite);
      ("analyze", Test_analyze.suite);
    ]
