(** Kernel interpreter: the reference meaning of a kernel over real grids.

    A kernel's value is its expression tree, evaluated exactly as
    {!Msc_ir.Expr.eval} evaluates it: no tap merging, no coefficient
    folding across nodes, no re-association. The interpreter is the oracle
    every compiled sweep is checked against bit for bit, and the fallback
    when a sweep does not compile.

    {!compile} turns the tree into closures once per geometry: parameters
    and constant subtrees fold to their values and every access resolves
    to a flat delta, so a sweep only runs the per-point arithmetic. Sweeps
    come in three writeback flavours: overwrite ([apply_range]),
    overwrite-with-scale ([apply_scaled_range], the runtime's write-through
    step) and accumulate ([accumulate_range]). A compiled [t] holds no
    mutable state, so pool workers may sweep disjoint tiles of one [t] at
    once.

    Kernels reading aux grids must be given them at application time via
    [~aux]; every grid must share the compiled geometry (shape and
    halo). *)

type t

val compile : ?trace:Msc_trace.t -> Msc_ir.Kernel.t -> geometry:Grid.t -> t
(** [geometry] supplies shape and halo only; any grid with the same shape
    and halo can be passed to the apply functions. [trace] records an
    [interp.compile] span and an [interp.kernel_points] counter.
    @raise Invalid_argument if the kernel's rank or shape mismatches the
    grid. *)

val kernel : t -> Msc_ir.Kernel.t
val shape : t -> int array

val check_grids : ?aux:(string * Grid.t) list -> t -> src:Grid.t -> dst:Grid.t -> unit
(** The geometry/aliasing validation every sweep performs, exposed so the
    compiled backend can guard its (unchecked) kernels identically: [src],
    [dst] and every aux grid the kernel reads must match the compiled
    shape and halo, and [src] must not alias [dst].
    @raise Invalid_argument on a mismatch, an alias, or a missing aux
    grid. *)

val check_range : t -> lo:int array -> hi:int array -> unit
(** The range validation every sweep performs: every read of the range
    stays inside the padded box (the interior plus [halo - radius]).
    @raise Invalid_argument when out of bounds. *)

val apply_range :
  ?aux:(string * Grid.t) list ->
  t -> src:Grid.t -> dst:Grid.t -> lo:int array -> hi:int array -> unit
(** [dst\[p\] <- K(src)\[p\]] for points [lo <= p < hi]. The range may
    extend past the interior by up to [halo - kernel radius] per dimension
    (the reads then still land inside the padded box) — the deep-halo
    temporal-blocking engine sweeps such extended ranges to recompute ghost
    cells; with the common [halo = radius] geometry the range is confined
    to the interior. [src] must not alias [dst].
    @raise Invalid_argument if the kernel reads an aux tensor that was not
    supplied, a grid's geometry differs, or the range exceeds the allowed
    extension. *)

val apply_scaled_range :
  ?aux:(string * Grid.t) list ->
  t -> scale:float -> src:Grid.t -> dst:Grid.t -> lo:int array -> hi:int array ->
  unit
(** [dst\[p\] <- scale * K(src)\[p\]] over the range — an overwrite, not an
    accumulation, so the destination needs no prior zero fill. Bit-identical
    to [accumulate_range] into a zeroed destination. *)

val accumulate_range :
  ?aux:(string * Grid.t) list ->
  t -> scale:float -> src:Grid.t -> dst:Grid.t -> lo:int array -> hi:int array ->
  unit
(** [dst\[p\] <- dst\[p\] + scale * K(src)\[p\]] over the range. *)

val apply : ?aux:(string * Grid.t) list -> t -> src:Grid.t -> dst:Grid.t -> unit
(** Full-interior [apply_range]. *)

val identity_accumulate_range :
  scale:float -> src:Grid.t -> dst:Grid.t -> lo:int array -> hi:int array -> unit
(** [dst += scale * src] over the range (the [State] term of a stencil). *)

val identity_apply_range :
  scale:float -> src:Grid.t -> dst:Grid.t -> lo:int array -> hi:int array -> unit
(** [dst <- scale * src] over the range — write-through form of the [State]
    term; degrades to contiguous row blits when [scale = 1]. *)
