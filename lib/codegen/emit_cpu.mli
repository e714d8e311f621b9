(** C code generation for homogeneous targets: plain C (serial) and
    OpenMP-annotated C for the Matrix MT2000+ and commodity CPUs. *)

val generate :
  ?steps:int ->
  ?bc:Msc_exec.Bc.t ->
  ?config:Msc_exec.Exec.Config.t ->
  omp:bool ->
  Msc_schedule.Plan.t ->
  string
(** One self-contained translation unit: prelude, init/report helpers, the
    [msc_step], and a [main] with the sliding-window time loop. With [omp],
    the parallel loop receives an [#pragma omp parallel for] annotation.
    [steps] is the default timestep count (overridable by [argv\[1\]];
    default 10).

    [config] selects the [msc_step] body. With [Compiled_c], the unit
    embeds the {e same} fused whole-sweep function the backend JITs at
    runtime ({!Msc_exec.Jit.emit_c_sweep}): [msc_step] bakes the plan's
    tile task boxes as static arrays and calls the fused kernel once per
    task, the task loop carrying the OpenMP pragma. With the default
    [Interp] backend (or a non-double grid, or a form the fused emitter
    rejects), [msc_step] is the per-point assignment whose loop nest walks
    [plan.loops]. *)

val fused_sweep_source : Msc_ir.Stencil.t -> string option
(** The fused whole-sweep C function {!generate} embeds under a compiled
    config, i.e. what {!Msc_exec.Jit.emit_c_sweep} emits for the stencil's
    terms. [None] when {!generate} would fall back to the per-point path
    (no kernel term, a non-double grid, or a form the emitter rejects). *)
