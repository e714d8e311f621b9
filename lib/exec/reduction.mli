(** Grid-reduction executor: evaluates a {!Msc_ir.Reduce.op} over the
    interior of one grid (or a pointwise pair), on the {!Exec.Config}
    backend and pool, with the bit-stability contract of
    {!Msc_ir.Reduce}:

    - each tile task accumulates a partial sequentially in row-major
      order (interpreter reference, or the compiled fast path from
      {!Jit.compile_reduce} — bit-identical by construction);
    - partials are folded with {!Msc_ir.Reduce.tree_combine} over the
      {e task index}, so the result never depends on pool size or worker
      scheduling.

    Workers only fill disjoint slots of the partials array in parallel
    (each kernel call stores its partial there); the combine tree folds
    that array in place on the calling domain, so a one-task reduction
    allocates nothing but its boxed result. *)

type t

val create :
  ?config:Exec.Config.t ->
  ?trace:Msc_trace.t ->
  ?tasks:(int array * int array) array ->
  Grid.t ->
  t
(** An executor for grids of this geometry (the grid supplies shape, halo
    and strides; its data is not retained). [tasks] (default: one task
    covering the whole interior) are the tile-partial boxes, normally a
    plan's tiling ({!Msc_schedule.Plan.reduce_plan} /
    {!Runtime.tiles}); they must tile the interior disjointly for the
    usual operator semantics, though any box list inside the interior is
    accepted (e.g. for partial-domain norms). [config] supplies the
    backend (compiled backends fall back to the interpreter per the usual
    rules) and the pool that fills partials. [trace] receives the kernel
    compiler's ["jit.lookup"]/["jit.compile"] spans.
    @raise Invalid_argument when a task box exceeds the interior. *)

val run : t -> op:Msc_ir.Reduce.op -> ?with_:Grid.t -> Grid.t -> float
(** Reduce the grid's interior. [with_] supplies the second grid of the
    binary operators ([Dot]); it must share the executor's geometry.
    @raise Invalid_argument on a geometry mismatch, or [Dot] without
    [with_]. *)

val run_raw : t -> op:Msc_ir.Reduce.op -> ?with_:Grid.t -> Grid.t -> float
(** {!run} without {!Msc_ir.Reduce.finalize} — the still-combinable local
    accumulation (e.g. the sum of squares for [Norm2]). The distributed
    layer combines these across ranks with
    {!Mpi_sim.allreduce} and finalizes exactly once, so a distributed
    norm is bit-identical to the single-grid norm of the gathered
    state. *)

val partial :
  op:Msc_ir.Reduce.op ->
  ?with_:Grid.t ->
  Grid.t ->
  lo:int array ->
  hi:int array ->
  float
(** The interpreter reference: one sequential row-major partial over the
    interior box [\[lo, hi)]. This is the fold every compiled kernel must
    reproduce bitwise. *)

val compiled : t -> bool
(** Whether the compiled fast path is active (always [false] for the
    [Interp] backend). *)

val fallback : t -> string option
(** Why a compiled backend degraded to the interpreter, when it did. *)

val tasks : t -> (int array * int array) array
