(** Kernel interpreter: the reference meaning of a kernel over real grids.

    A kernel's value is its expression tree, evaluated exactly as
    {!Msc_ir.Expr.eval} evaluates it: no tap merging, no coefficient
    folding across nodes, no re-association. The interpreter is the oracle
    every compiled sweep is checked against bit for bit, and the fallback
    when a sweep does not compile.

    {!compile} turns the tree into closures once per geometry: parameters
    and constant subtrees fold to their values and every access resolves
    to a flat delta, so a sweep only runs the per-point arithmetic.
    {!compile_sweep} does this for every term of a stage and returns a
    {!Backend.sweep_fn}, the calling convention and per-point fold of
    {!Jit.compile_sweep}: the runtime dispatches an interpreted stage
    exactly as a compiled one. A sweep function holds no mutable state, so
    pool workers may sweep disjoint tiles with one function at once.

    Sweep functions do not validate their arguments. The checks every
    sweep must pass are {!check_grids} and {!check_range} per kernel term
    (every grid shares the compiled geometry, [src] does not alias [dst],
    every aux grid the kernel reads is supplied, the range stays inside
    the padded box) and {!check_state} per State term. The runtime runs
    them as {!check_kernel_window} and {!check_state_window} with each
    task's window placement, which also keep every read and write of a
    window inside the rows it holds. *)

type t

val compile : ?trace:Msc_trace.t -> Msc_ir.Kernel.t -> geometry:Grid.t -> t
(** [geometry] supplies shape and halo only; {!check_grids} accepts any
    grid with the same shape and halo. [trace] records an
    [interp.compile] span and an [interp.kernel_points] counter.
    @raise Invalid_argument if the kernel's rank or shape mismatches the
    grid. *)

type placement = { mutable first_row : int; windows : Grid.t array }
(** Where the windows of one task sit. A graph runtime sweeps producers
    into per-worker windows: slabs of the padded box along dimension 0
    (the geometry's extents and halo in every other dimension, no halo in
    dimension 0, hence the same strides), each holding the interior rows
    [\[first_row, first_row + rows)] of dimension 0. [windows] lists them;
    a grid is a window when it is physically one of them. Each worker
    keeps one placement and moves [first_row] to the sub-slab it checks,
    so a check allocates nothing. *)

val check_grids : ?aux:(string * Grid.t) list -> t -> src:Grid.t -> dst:Grid.t -> unit
(** The geometry/aliasing validation a kernel term needs before any sweep
    function (interpreted or compiled, neither checks) runs it: [src],
    [dst] and every aux grid the kernel reads must match the compiled
    shape and halo, and [src] must not alias [dst].
    @raise Invalid_argument on a mismatch, an alias, or a missing aux
    grid. *)

val check_range : t -> lo:int array -> hi:int array -> unit
(** The range validation a kernel term needs before a sweep: every read
    of the range stays inside the padded box (the interior plus
    [halo - radius]).
    @raise Invalid_argument when out of bounds. *)

val check_kernel_window :
  placement ->
  aux:(string * Grid.t) list ->
  t ->
  src:Grid.t ->
  dst:Grid.t ->
  lo:int array ->
  hi:int array ->
  unit
(** {!check_grids} and {!check_range} for a kernel term any of whose
    grids may be a window of [placement]: a window must be a slab of the
    compiled geometry, every read of a window operand ([src] or an [aux]
    grid) over the range, at the kernel's own offsets into that tensor,
    and the write of a window [dst] must stay inside the rows the window
    holds. With no window among its grids it is exactly those two
    checks.
    @raise Invalid_argument as they do, or on a row outside a window. *)

val check_state : src:Grid.t -> dst:Grid.t -> unit
(** The validation of a State (identity) term: its [src] has [dst]'s
    shape and halo.
    @raise Invalid_argument on a mismatch. *)

val check_state_window :
  placement -> src:Grid.t -> dst:Grid.t -> lo:int array -> hi:int array -> unit
(** {!check_state} for a State term one of whose grids may be a window of
    [placement]: a window must be a slab of the other grid's layout, must
    not alias it, and must hold every row of [\[lo, hi)]. Without a
    window among them it is {!check_state}.
    @raise Invalid_argument on a mismatch or a row outside a window. *)

val compile_sweep :
  geometry:Grid.t -> Backend.sweep_term list -> Backend.sweep_fn
(** One interpreted sweep over every term, in stencil term order, under
    the {!Backend.sweep_fn} contract: one source array per term, aux
    arrays in {!Backend.sweep_aux_slots} order, and per point the first
    term seeds the accumulator (unscaled when its scale is [1.0]), each
    later term adds [scale * v], and [dst] is written once. This is the
    operation sequence {!Jit.compile_sweep} emits, so the two agree bit
    for bit. [shifts] moves each array's base as {!Backend.sweep_fn}
    describes. Each kernel term compiles as {!compile} over [geometry]; the
    range may extend past the interior by [check_range]'s slack, which the
    deep-halo temporal-blocking engine uses to recompute ghost cells. A
    State-only term list needs no kernel, so every stage has a sweep.
    @raise Invalid_argument on an empty term list, or a kernel term whose
    shape or halo differs from [geometry]. *)
