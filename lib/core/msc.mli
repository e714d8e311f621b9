(** MSC: a stencil DSL with automatic code generation and optimization for
    large-scale many-core execution (OCaml reproduction of Li et al.,
    ICPP '21).

    The front door is {!Pipeline}: define a grid and kernel with {!Builder},
    wrap them once with {!Pipeline.make} (optionally with a {!Schedule}, a
    boundary condition, an execution {!Exec.Config.t} — kernel backend,
    temporal depth, worker pool — and a {!Trace} sink), then drive the same
    configuration through every stage —

    {[
      let p = Msc.Pipeline.make ~stencil ~trace () in
      let final = Msc.Pipeline.run ~steps:10 p in
      let report = Msc.Pipeline.verify ~steps:5 p in
      let files = Msc.Pipeline.compile ~target:Msc.Codegen.Athread p in
      let sim = Msc.Pipeline.simulate ~target:Msc.Codegen.Athread p in
      let cluster = Msc.Pipeline.distribute ~ranks_shape:[| 2; 2; 1 |] p in
    ]}

    Every stage honours the pipeline's single [trace] sink ({!Trace}, a
    near-zero-cost span/counter recorder): native runs record per-tile
    sweeps, BC application and window rotation; the distributed runtime
    records halo pack/exchange/unpack per rank; the processor simulators
    record modelled DMA/compute phases; the auto-tuner records trials and
    annealer decisions. Export with {!Trace.to_chrome_json} (load in
    [about:tracing] / Perfetto) or print {!Trace.report}.

    Submodules re-export every subsystem; see also the runnable programs
    under [examples/] and the [msc profile] CLI subcommand. *)

(** {1 Re-exported subsystems} *)

module Dtype = Msc_ir.Dtype
module Expr = Msc_ir.Expr
module Tensor = Msc_ir.Tensor
module Kernel = Msc_ir.Kernel
module Stencil = Msc_ir.Stencil
module Shapes = Msc_frontend.Shapes
module Builder = Msc_frontend.Builder
module Pretty = Msc_frontend.Pretty
module Graph = Msc_graph.Graph
(** Pipeline graph IR: DAGs of named stencil stages with validation
    (acyclicity, shape/halo compatibility) and DOT export. *)

module Pass = Msc_graph.Pass
(** Graph optimization passes — dead-stage elimination, producer→consumer
    fusion, shared-halo merging — with a traced fixpoint driver. Every
    pass preserves bit-identity against naive stage-at-a-time
    interpretation. *)

module Schedule = Msc_schedule.Schedule
module Loopnest = Msc_schedule.Loopnest
module Plan = Msc_schedule.Plan
module Grid = Msc_exec.Grid

module Exec = Msc_exec.Exec
(** Execution configuration: the {!Exec.Config.t} record bundling the kernel
    backend, distributed temporal depth and worker pool that every execution
    stage shares. *)

module Backend = Msc_exec.Backend
(** Kernel execution backends: the tree-walking interpreter and the
    runtime-compiled fused C sweep. *)

module Jit = Msc_exec.Jit
(** The compiled-kernel cache behind {!Backend.Compiled_c}: on-disk
    artifacts keyed by plan digest, in-process memoization, and
    compile/fallback statistics. *)

module Reduce = Msc_ir.Reduce
(** Grid-reduction operators ([sum], [dot], [norm2], [max_abs]) with the
    deterministic tree-combine contract every executor follows. *)

module Reduction = Msc_exec.Reduction
(** Grid-reduction executor: tile partials on the configured backend (with
    a {!Jit} fast path), folded in task-index tree order — bit-stable
    across pool sizes. *)

module Solver = Msc_solver.Solver
(** Matrix-free iterative solvers (Jacobi, red-black Gauss–Seidel, CG)
    whose inner operator is an MSC stencil on the distributed runtime. *)

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
(** Pipeline-wide tracing: spans, counters, chrome-trace export and a
    per-phase aggregate report. {!Trace.disabled} (the default everywhere)
    costs one branch per instrumentation point and allocates nothing. *)

(** {1 Pipeline}

    One configuration record shared by every stage of the toolchain. *)

module Pipeline : sig
  type t
  (** A stencil plus the knobs every stage shares: optional schedule,
      boundary condition, execution {!Exec.Config.t} and trace sink.
      Immutable; cheap to build. *)

  val make :
    stencil:Stencil.t ->
    ?schedule:Schedule.t ->
    ?bc:Bc.t ->
    ?config:Exec.Config.t ->
    ?trace:Trace.t ->
    unit ->
    t
  (** [config] (default {!Exec.Config.default}: interpreter backend,
      depth 1, sequential pool) carries the three execution
      knobs shared by {!run}, {!verify} and {!distribute}. The pool is
      caller-owned — build one with {!Domain_pool.create} and shut it down
      when done (a GC finaliser backstops leaks). [trace] (default
      {!Trace.disabled}) is threaded through every stage. When [schedule]
      is omitted, stages that need one derive the target's canonical
      schedule with the default tile clamped to the grid. *)

  val of_graph :
    ?passes:Pass.t list ->
    ?schedule:Schedule.t ->
    ?bc:Bc.t ->
    ?config:Exec.Config.t ->
    ?trace:Trace.t ->
    Graph.t ->
    t
  (** A pipeline over a multi-stage {!Graph.t}. The graph is first run
      through [passes] (default {!Pass.default_pipeline}: dead-stage
      elimination, producer→consumer fusion, shared-halo merging) to a
      fixpoint; {!run} and {!distribute} then execute the optimized
      graph, its remaining producers tile-local ({!Runtime.create_graph}
      / {!Distributed.create_graph}), bit-identical to naive
      stage-at-a-time interpretation of the original graph. {!stencil}
      reports the optimized graph's output stage; {!verify}, {!compile}
      and {!simulate} apply to that stage alone and ignore upstream
      stages. *)

  val stencil : t -> Stencil.t

  val graph : t -> Graph.t option
  (** The optimized (post-pass) graph, when built with {!of_graph}. *)

  val config : t -> Exec.Config.t
  val trace : t -> Trace.t

  val plan : ?target:Codegen.target -> t -> (Plan.t, string) result
  (** The lowered execution plan every stage consumes: validated loop nest,
      materialized tile tasks, parallel assignment, DMA plan and derived
      metrics. Without [target], lowers the pipeline's own schedule (or the
      empty schedule) with no machine descriptor — what {!run} executes.
      With [target], lowers the target's canonical schedule fallback against
      that target's machine descriptor — what {!compile} emits and
      {!simulate} costs. *)

  val graph_plan : t -> (Plan.graph_plan, string) result
  (** The graph plan (per-stage tile plans, producer window-slot
      assignment, exchange counts) a graph pipeline executes; [Error] on
      a pipeline built with {!make}. *)

  val run : steps:int -> t -> Grid.t
  (** Execute natively (sliding time window, tiled, domain-parallel, on
      [config]'s kernel backend) and return the final state. Graph
      pipelines run the whole graph per step. *)

  val run_report : steps:int -> t -> Grid.t * Runtime.backend_report
  (** Like {!run}, but also report which kernel backend actually executed —
      the requested backend degrades to the interpreter when no toolchain
      is available or a kernel shape is not compilable. *)

  val verify : steps:int -> t -> Verify.report
  (** §5.1 correctness check of the optimized runtime against the naive
      serial one (the tree interpreter, untiled, sequential). *)

  val compile :
    ?steps:int -> target:Codegen.target -> t -> (Codegen.file list, string) result
  (** AOT C code generation for [target]; [Error] on an illegal schedule
      (e.g. SPM overflow for {!Codegen.Athread}). The pipeline's
      {!Exec.Config} is threaded through: with a compiled backend the
      CPU/OpenMP targets embed the same fused whole-sweep body the runtime
      JIT executes (see {!Codegen.generate}). *)

  type sim_report =
    | Sunway_report of Sunway.report
    | Matrix_report of Matrix.report

  val simulate :
    ?steps:int -> target:Codegen.target -> t -> (sim_report, string) result
  (** Processor performance model: {!Codegen.Athread} runs the Sunway
      SW26010 CPE-cluster model, {!Codegen.Openmp} the Matrix MT2000+ model;
      {!Codegen.Cpu} has no model and returns [Error]. *)

  val distribute : ranks_shape:int array -> t -> Distributed.t
  (** Decompose over a simulated MPI process grid with automatic halo
      exchange; each rank's runtime inherits the pipeline's trace sink with
      its rank as [tid]. The pipeline's [config] selects the temporal
      depth of the overlapped stepping protocol ([config.depth]; depth
      [k > 1] is communication-avoiding temporal blocking with one deep
      exchange per [k] steps), the kernel backend of every rank's local
      runtime ([config.backend]) and the pool that dispatches ranks
      concurrently ([config.pool]). *)

  val autotune :
    ?seed:int ->
    ?iterations:int ->
    make_stencil:(int array -> Stencil.t) ->
    nranks:int ->
    t ->
    Autotune.result
  (** Tune tile sizes, MPI grid shape and temporal-block depth for this
      pipeline's global grid ([make_stencil] rebuilds the stencil at each
      candidate subgrid). *)
end
