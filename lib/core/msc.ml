module Dtype = Msc_ir.Dtype
module Expr = Msc_ir.Expr
module Tensor = Msc_ir.Tensor
module Kernel = Msc_ir.Kernel
module Stencil = Msc_ir.Stencil
module Shapes = Msc_frontend.Shapes
module Builder = Msc_frontend.Builder
module Pretty = Msc_frontend.Pretty
module Graph = Msc_graph.Graph
module Pass = Msc_graph.Pass
module Schedule = Msc_schedule.Schedule
module Loopnest = Msc_schedule.Loopnest
module Plan = Msc_schedule.Plan
module Grid = Msc_exec.Grid
module Exec = Msc_exec.Exec
module Backend = Msc_exec.Backend
module Jit = Msc_exec.Jit
module Reduce = Msc_ir.Reduce
module Reduction = Msc_exec.Reduction
module Solver = Msc_solver.Solver
module Runtime = Msc_exec.Runtime
module Interp = Msc_exec.Interp
module Verify = Msc_exec.Verify
module Bc = Msc_exec.Bc
module Codegen = Msc_codegen.Codegen
module Machine = Msc_machine.Machine
module Roofline = Msc_machine.Roofline
module Sunway = Msc_sunway.Sim
module Spm = Msc_sunway.Spm
module Matrix = Msc_matrix.Sim
module Mpi = Msc_comm.Mpi_sim
module Netmodel = Msc_comm.Netmodel
module Decomp = Msc_comm.Decomp
module Halo = Msc_comm.Halo
module Distributed = Msc_comm.Distributed
module Scaling = Msc_comm.Scaling
module Autotune = Msc_autotune.Autotune
module Tuning_params = Msc_autotune.Params
module Suite = Msc_benchsuite.Suite
module Experiments = Msc_benchsuite.Experiments
module Ablations = Msc_benchsuite.Ablations
module Inspector = Msc_comm.Inspector
module Domain_pool = Msc_util.Domain_pool
module Prng = Msc_util.Prng
module Units_fmt = Msc_util.Units_fmt
module Stats = Msc_util.Stats
module Table = Msc_util.Table
module Chart = Msc_util.Chart
module Trace = Msc_trace

module Pipeline = struct
  type t = {
    stencil : Stencil.t;
    schedule : Schedule.t option;
    bc : Bc.t option;
    config : Exec.Config.t;
    trace : Trace.t;
    graph : Graph.t option;
  }

  let make ~stencil ?schedule ?bc ?(config = Exec.Config.default)
      ?(trace = Trace.disabled) () =
    { stencil; schedule; bc; config; trace; graph = None }

  let of_graph ?passes ?schedule ?bc ?(config = Exec.Config.default)
      ?(trace = Trace.disabled) g =
    let passes = Option.value passes ~default:Pass.default_pipeline in
    let g = Pass.apply ~trace passes g in
    {
      stencil = (Graph.output_stage g).Graph.stencil;
      schedule;
      bc;
      config;
      trace;
      graph = Some g;
    }

  let stencil p = p.stencil
  let graph p = p.graph
  let config p = p.config
  let trace p = p.trace

  (* When no schedule was given, fall back to the target's canonical one with
     the default tile clamped to the grid (exactly what a user would write
     first; the CLI used to duplicate this). *)
  let schedule_for ~target p =
    match p.schedule with
    | Some s -> s
    | None ->
        let kernel = List.hd (Stencil.kernels p.stencil) in
        let tile =
          Array.mapi
            (fun d t -> min t p.stencil.Stencil.grid.Tensor.shape.(d))
            (Schedule.default_tile kernel)
        in
        (match (target : Codegen.target) with
        | Codegen.Athread -> Schedule.sunway_canonical ~tile kernel
        | Codegen.Openmp -> Schedule.matrix_canonical ~tile kernel
        | Codegen.Cpu -> Schedule.cpu_canonical ~tile kernel)

  let plan ?target p =
    match target with
    | None ->
        let sched = Option.value p.schedule ~default:Schedule.empty in
        Plan.compile p.stencil sched
    | Some target ->
        Plan.compile
          ~machine:(Codegen.machine_of_target target)
          p.stencil (schedule_for ~target p)

  let graph_plan p =
    match p.graph with
    | None -> Error "graph_plan: not a graph pipeline (built with make)"
    | Some g ->
        Plan.compile_graph g (Option.value p.schedule ~default:Schedule.empty)

  let runtime p =
    match p.graph with
    | Some g ->
        Runtime.create_graph ?schedule:p.schedule ~config:p.config ?bc:p.bc
          ~trace:p.trace g
    | None ->
        Runtime.create ?schedule:p.schedule ~config:p.config ?bc:p.bc
          ~trace:p.trace p.stencil

  let run ~steps p =
    let rt = runtime p in
    Runtime.run rt steps;
    Runtime.current rt

  let run_report ~steps p =
    let rt = runtime p in
    Runtime.run rt steps;
    (Runtime.current rt, Runtime.backend_report rt)

  let verify ~steps p =
    Verify.check ?schedule:p.schedule ~config:p.config ?bc:p.bc ~trace:p.trace
      ~steps p.stencil

  let compile ?steps ~target p =
    let schedule = schedule_for ~target p in
    try
      Ok
        (Codegen.generate ?steps ?bc:p.bc ~config:p.config p.stencil schedule
           target)
    with Invalid_argument msg -> Error msg

  type sim_report =
    | Sunway_report of Sunway.report
    | Matrix_report of Matrix.report

  let simulate ?steps ~target p =
    match (target : Codegen.target) with
    | Codegen.Athread ->
        Result.map
          (fun r -> Sunway_report r)
          (Sunway.simulate ?steps ~trace:p.trace p.stencil
             (schedule_for ~target p))
    | Codegen.Openmp ->
        Result.map
          (fun r -> Matrix_report r)
          (Matrix.simulate ?steps ~trace:p.trace p.stencil
             (schedule_for ~target p))
    | Codegen.Cpu ->
        Error "simulate: the cpu target has no processor model (use run)"

  let distribute ~ranks_shape p =
    (* The config's pool dispatches ranks, not tiles: each step runs the
       ranks' phases concurrently. *)
    match p.graph with
    | Some g ->
        Distributed.create_graph ~config:p.config ?schedule:p.schedule
          ?bc:p.bc ~trace:p.trace ~ranks_shape g
    | None ->
        Distributed.create ~config:p.config ?schedule:p.schedule ?bc:p.bc
          ~trace:p.trace ~ranks_shape p.stencil

  let autotune ?seed ?iterations ~make_stencil ~nranks p =
    Autotune.tune ?seed ?iterations ~trace:p.trace ~make_stencil
      ~global:p.stencil.Stencil.grid.Tensor.shape ~nranks ()
end
