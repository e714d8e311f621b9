(** Single-node stencil runtime: sliding time window (§4.3, Figure 5),
    tiled execution per the schedule, and optional domain parallelism.

    The window keeps [W + 1] grids for a stencil of time depth [W] (the
    paper's "width three" for two time dependencies): the [W] most recent
    states plus one spare slot the next output is written into.

    Every runtime steps one stage per step over the plan's tasks into the
    output slot: a single stencil ({!create}) is a graph whose only stage
    is the output; a graph ({!create_graph}) computes its other stages
    tile-local, inside each task, into per-worker windows. Both share one
    stepping path.

    {b Creation} hides the cold JIT behind grid set-up. {!create} and
    {!create_graph} first start every stage's fused kernel compile
    ({!Jit.start_sweep}; a sweep's terms need only the source tensor's
    halo, not a grid), then allocate the state window, fill it with
    [init], run the first boundary pass, fill the static aux grids and
    allocate the per-worker windows while the compilers run as child
    processes, and only then wait for the kernels ({!Jit.await}). At most
    {!Jit.max_compilers} compilers run at once; the state fills call
    {!Jit.poll} every 65536 points, so a compile queued behind another
    starts as soon as the first one exits. [init] and [aux_init] are
    called on the creating domain only. A create that raises after
    starting its compiles still waits for all of them.

    {b Halo ownership.} The halo cells of the window's states belong to
    the runtime. Sweeps write interior cells only, so a constant
    ([Dirichlet]) boundary pass runs once per window slot, the first time
    the slot receives a state, and stays right for as long as the slot
    is reused; [Periodic] and [Reflect] halos depend on the interior and
    are refreshed every step. A caller that writes halo cells of a state
    (the distributed runtime's exchange) must write them before every
    sweep that reads them, and a step whose tasks reach into the halo
    must be finished with [finish_step ~refresh]. *)

type t

val default_init : int -> int array -> float
(** The default initial condition: a deterministic smooth field, identical
    for every past state ([dt] is ignored). *)

val default_aux_init : string -> int array -> float
(** Default closed form for static coefficient grids, keyed on the tensor
    name; also evaluated over halo cells and replicated by the code
    generator, so every execution path agrees. *)

val aux_base : string -> float
(** The name-derived constant of {!default_aux_init} (exposed so the code
    generator can fold it into the emitted C). *)

type backend_report = {
  requested : Backend.t;  (** what the config asked for *)
  effective : Backend.t;
      (** what kernel terms actually run on: [requested] when at least one
          stage compiled, [Interp] when everything fell back *)
  kernel_terms : int;  (** stencil terms that sweep a kernel, all stages *)
  compiled_terms : int;
      (** of those, how many run inside a fused compiled kernel *)
  fused_sweeps : int;
      (** stages whose whole sweep runs as one fused compiled kernel
          ([1] for a compiled single stencil, [0] when it fell back) *)
  tile_dispatches : int;
      (** cumulative count of tile tasks swept so far — each is one
          dispatch unit on the worker pool (interior/shell splits and
          temporal substeps all count their tasks) *)
  pool_inline_cutoff : int;
      (** the inline-execution threshold in effect: a parallel-scheduled
          sweep whose task array covers fewer total points than this runs
          inline on the calling domain instead of the pool — tiny sweeps
          cost more to dispatch than to compute. A constant 32768. *)
  inline_dispatches : int;
      (** cumulative count of parallel-scheduled sweeps the cutoff ran
          inline *)
  fallback : string option;
      (** first reason a stage's fused compile failed and the stage fell
          back to the interpreter, if any *)
}
(** How the configured {!Backend} materialised for this runtime. Every
    stage sweeps through one {!Backend.sweep_fn}, chosen once at creation
    and dispatched tile-task-at-a-time across the pool: under
    [Compiled_c] the JIT's fused kernel ({!Jit.compile_sweep}), else, or
    when that compile fails, the interpreter's ({!Interp.compile_sweep}).
    A stage with no kernel term has nothing to compile and always runs
    the interpreter's sweep, without a fallback reason. Before each task
    (each sub-slab, when producer windows cut it) the runtime runs the
    interpreter's checks on every term of every stage
    ({!Interp.check_kernel_window}, {!Interp.check_state_window}),
    windows included, whichever function
    sweeps it. *)

val create :
  ?plan:Msc_schedule.Plan.t ->
  ?schedule:Msc_schedule.Schedule.t ->
  ?config:Exec.Config.t ->
  ?init:(int -> int array -> float) ->
  ?aux_init:(string -> int array -> float) ->
  ?bc:Bc.t ->
  ?trace:Msc_trace.t ->
  ?tid:int ->
  Msc_ir.Stencil.t -> t
(** [create st] builds the runtime. [init dt coord] gives the initial state
    at time [-dt] ([dt = 1..W]); it defaults to a deterministic pseudo-random
    field shared by all initial states. [plan] supplies a precompiled
    {!Msc_schedule.Plan.t} whose tile tasks and parallel assignment drive
    execution — the sweep follows the plan's task order, so a schedule's
    [reorder] decides the traversal. [schedule] is sugar that compiles a
    plan here (ignored when [plan] is given; when neither is given the
    runtime runs the untiled sequential plan of {!Msc_schedule.Schedule.empty}).
    Results are plan-independent. [config] (default {!Exec.Config.default})
    supplies the kernel {!Backend} — [Compiled_c] JITs one fused sweep
    against the plan, falling back to the interpreter (see
    {!backend_report}) — and the worker pool, which the caller owns; its
    [depth] field concerns the distributed halo exchange and is ignored
    here (single node). [bc] is applied to every initial state and to each
    newly produced state (default [Dirichlet 0.0], the paper's zero-halo
    convention; a constant halo is written once per window slot, see
    {b Halo ownership} above).

    [trace] (default {!Msc_trace.disabled}) records a ["sweep"] span per
    tile, ["bc.apply"] and ["window.rotate"] spans per step, and a
    ["sweep.points"] counter; parallel sweeps propagate a per-worker sink
    through the pool's [on_worker] hook, so worker spans carry their worker
    id as [tid]. Sequential spans carry [tid] (default 0 — the distributed
    runtime labels each rank's runtime with its rank). Kernel compilation
    records a ["jit.lookup"] span per stage, a ["jit.compile"] span over
    the whole wall time of each compiler child (most of it hidden behind
    the grid set-up), and a ["jit.await"] span for the time the create
    actually blocked on a child. An enabled trace is
    additionally tagged with the plan's metadata ([plan.tiles],
    [plan.working_set_bytes], [plan.reuse_factor] counters).
    @raise Invalid_argument if the schedule is illegal for the stencil's
    kernels. *)

val stencil : t -> Msc_ir.Stencil.t
val time_window : t -> int

val backend_report : t -> backend_report
(** Which backend this runtime's kernel terms actually run on. *)

val aux_tensors_of : Msc_ir.Stencil.t -> Msc_ir.Tensor.t list
(** Distinct aux (coefficient) tensors across the stencil's kernels, in
    first-use order. *)

val aux_grids : t -> (string * Grid.t) list
(** The static coefficient grids (one per distinct aux tensor of the
    stencil's kernels), filled from [aux_init] halo included. *)

val state : t -> dt:int -> Grid.t
(** The state at [t - dt], [1 <= dt <= W]. After [n] steps, [state ~dt:1] is
    the result of step [n]. *)

val current : t -> Grid.t
(** [state ~dt:1]. *)

val output_slot : t -> Grid.t
(** The spare grid the next step will write into (exposed for the
    distributed runtime, which must exchange halos into input states). *)

val steps_done : t -> int

val step : t -> unit
(** Advance one timestep: [sweep_tasks t (tiles t); finish_step t]. *)

(** {1 Split stepping}

    A step decomposed into phases, for callers that interleave other work
    (the distributed runtime hides its halo exchange behind an interior
    sub-sweep). One step = [sweep_tasks] calls whose task
    arrays together cover {!tiles} exactly once (in any order and split —
    every cell depends only on the input window, so the result is
    bit-identical to {!step}), then [finish_step]. On a graph runtime each
    task also computes the producers it reads. *)

val begin_step : t -> unit
(** Does nothing. Sweeps write through (each point's terms fold into one
    accumulator and the destination is written once), so a step needs no
    preparation; this stays only for callers written against an earlier
    begin / sweep / finish protocol. *)

val sweep_tasks : t -> (int array * int array) array -> unit
(** Sweep the given (lo, hi) task ranges of the output stage into the
    output slot under the plan's parallel dispatch, recording a ["sweep"]
    span per task. On a graph runtime every task first sweeps each
    tile-local producer over its ghost-extended range into the running
    worker's windows. Before any sweep of a (sub-)task writes, every term
    of every stage passes the interpreter's checks.
    @raise Invalid_argument when a check rejects a range; nothing of that
    (sub-)task has been written. *)

val finish_step : ?refresh:Bc.plan -> t -> unit
(** Record ["sweep.points"], apply the boundary condition to the new state,
    and rotate the window. Without [refresh], the full-face boundary pass
    compiled at creation runs, except on a slot whose constant
    ([Dirichlet]) halo it has already written. [refresh] replaces it with
    a precompiled {!Bc.plan} for the same grid geometry, run every time —
    the distributed stepping protocol passes each rank's physical-face
    plan, so the ghost cells it recomputed into the halo survive between
    substeps (periodic domains pass an empty plan).
    @raise Invalid_argument if [refresh] was compiled for another shape
    or halo. *)

val run : t -> int -> unit
(** [run t n] performs [n] steps. *)

val tiles : t -> (int array * int array) array
(** The output stage's (lo, hi) task ranges in the plan's traversal order
    (a single full-range tile when untiled). *)

(** {1 Pipeline graphs}

    A graph runtime executes a whole {!Msc_graph.Graph.t} per step as one
    stage over the output stage's tasks. Each stage that
    {!Msc_graph.Pass.fuse} did not inline runs {e tile-local}: per task,
    in topological order, it is swept over the task's ghost-zone-extended
    range ({!Msc_graph.Graph.extension}) into a per-worker {e window}, a
    slab of the padded geometry along dimension 0 with the geometry's
    strides that holds only the rows the extended range touches. Window
    slots reuse {!Msc_schedule.Plan.compile_graph}'s liveness assignment.
    A task whose windows would exceed {!window_budget} bytes is cut along
    dimension 0 into disjoint sub-slabs, each recomputing its producers'
    extension rows. No full-size intermediate grid is allocated. The
    output stage then sweeps the task into the stepped state, and the
    window rotates exactly as a single stencil's would. Every stage runs
    one {!Backend.sweep_fn} that evaluates each kernel's tree as written,
    with each window's base shift ({!Backend.sweep_fn}'s [shifts]), so
    every point gets the same bits as a stage-at-a-time sweep;
    [Compiled_c] JITs each stage against its plan digest (interpreter
    fallback per stage). Windows carry no boundary condition: extended
    producer sweeps read the source's BC-filled (or exchanged) deep halo,
    sized by the graph's {!Msc_graph.Graph.required_halo}.

    The stage entry points below also work on a single-stencil runtime;
    every runtime has exactly one stage (index 0). *)

val window_budget : int
(** Per-worker bytes a graph task's windows may take before the task is
    cut into sub-slabs (512 KiB). *)

val window_bytes : Msc_schedule.Plan.graph_plan -> int
(** Bytes of one worker's windows for this plan: [gp_n_buffers] slots,
    each the sub-slab rows plus the deepest producer extension on each
    side, times the padded row; [0] when every producer was inlined. *)

val create_graph :
  ?graph_plan:Msc_schedule.Plan.graph_plan ->
  ?schedule:Msc_schedule.Schedule.t ->
  ?config:Exec.Config.t ->
  ?init:(int -> int array -> float) ->
  ?aux_init:(string -> int array -> float) ->
  ?bc:Bc.t ->
  ?trace:Msc_trace.t ->
  ?tid:int ->
  Msc_graph.Graph.t ->
  t
(** Build a graph runtime. [graph_plan] supplies a precompiled
    {!Msc_schedule.Plan.graph_plan} (the distributed runtime passes one
    per rank extent); otherwise [schedule] (default
    {!Msc_schedule.Schedule.empty}) is lowered against every stage here.
    [init]/[aux_init]/[bc]/[trace]/[tid] behave as in {!create}; an
    enabled trace also gets [graph.stages], [graph.buffers] (window
    slots) and [graph.window_bytes] (per worker) counters. The
    split-stepping entry points ({!sweep_tasks}, {!tiles}) refer to the
    output stage's tasks.
    @raise Invalid_argument if any stage rejects the schedule. *)

val graph_plan : t -> Msc_schedule.Plan.graph_plan option
(** The lowered graph plan, when this is a graph runtime. *)

val graph_stage_count : t -> int
(** Stages per step: [1] for every runtime (a graph's producers run inside
    each task). *)

val graph_stage_tasks : t -> int -> (int array * int array) array
(** Stage [0]'s task array: {!tiles}.
    @raise Invalid_argument for any other index. *)

val sweep_graph_stage : t -> int -> (int array * int array) array -> unit
(** [sweep_graph_stage t 0 tasks] is {!sweep_tasks}[ t tasks].
    @raise Invalid_argument for any other stage index. *)
