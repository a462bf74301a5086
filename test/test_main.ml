let () =
  Alcotest.run "repro"
    (Test_common.suite @ Test_arm.suite @ Test_x86.suite @ Test_machine.suite
    @ Test_mmu.suite @ Test_tcg.suite @ Test_rules.suite @ Test_dbt.suite
    @ Test_emitter.suite @ Test_symexec.suite @ Test_learn.suite @ Test_kernel.suite @ Test_robustness.suite @ Test_snapshot.suite @ Test_observe.suite
    @ Test_perfscope.suite @ Test_regions.suite @ Test_resilience.suite
    @ Test_aotcache.suite @ Test_telemetry.suite @ Test_covscope.suite
    @ Test_parallel.suite @ Test_exec_identity.suite)
