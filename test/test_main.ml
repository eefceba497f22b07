let () =
  Alcotest.run "hive"
    [
      ("sim", Test_sim.suite);
      ("flash", Test_flash.suite);
      ("hive", Test_hive.suite);
      ("fs", Test_fs.suite);
      ("vm-cow", Test_vm_cow.suite);
      ("recovery", Test_recovery.suite);
      ("partition", Test_partition.suite);
      ("rpc", Test_rpc.suite);
      ("careful", Test_careful.suite);
      ("sharing", Test_sharing.suite);
      ("import-cache", Test_import_cache.suite);
      ("ssi", Test_ssi.suite);
      ("workloads", Test_workloads.suite);
      ("traffic", Test_traffic.suite);
      ("observability", Test_observability.suite);
      ("wax-swap", Test_wax_swap.suite);
      ("wax-scale", Test_wax_scale.suite);
      ("fuzz", Test_fuzz.suite);
      ("bench", Test_bench.suite);
      ("cli", Test_cli.suite);
    ]
