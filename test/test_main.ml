(* Entry point: aggregates every module's suites into one alcotest run. *)

let () =
  (* The suites build MPI simulators with synthetic network models; zero the
     wall-clock latency scale so no test ever sleeps out simulated message
     latency (the analytic model times are unaffected). Tests that exercise
     the sleep path restore the scale locally. *)
  Msc_comm.Netmodel.set_sim_latency_scale 0.0;
  Alcotest.run "msc"
    (Test_util.suites @ Test_ir.suites @ Test_frontend.suites
   @ Test_simplify.suites @ Test_schedule.suites @ Test_plan.suites
   @ Test_exec.suites @ Test_backend.suites @ Test_reduce.suites
   @ Test_solver.suites @ Test_codegen.suites
   @ Test_machines.suites @ Test_comm.suites
   @ Test_multigrid.suites @ Test_extensions.suites @ Test_bc.suites
   @ Test_baselines.suites
   @ Test_graph.suites
   @ Test_suite.suites @ Test_pipeline.suites @ Test_trace.suites
   @ Test_fastpath.suites @ Test_misc.suites
   (* Last: the slow Figure-11 tuning test holds ~5 GB of live plan-cache
      data, and a heap grown that far is not handed back, so every suite
      after it would add its own allocations on top of that peak. *)
   @ Test_autotune.suites)
