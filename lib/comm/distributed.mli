(** Functional distributed runtime: the stencil runs on per-rank sub-grids
    with real halo exchanges through the MPI simulator; results are
    gatherable and bit-comparable against a single-grid run.

    This is the correctness substrate behind the scalability experiments —
    the cost side lives in {!Scaling}. *)

type t

(** {1 The stepping protocol}

    The paper's asynchronous protocol (§4.4, Figure 6c), parameterised by
    its temporal depth ([config.depth], default 1). Each block posts one
    exchange per neighbour for every rank, then goes ready first: a rank
    whose messages have all arrived ({!Halo.try_complete}) is unpacked,
    has its physical faces refreshed and is swept whole in one call. Only
    a rank whose messages are still in flight takes the split: its
    halo-free interior is swept while they fly, then it completes the
    receives, refreshes the physical faces and sweeps the boundary shell.
    Which path a rank takes depends on message arrival alone; both give
    the same bits, so there is no knob. At depth 1 the exchange
    carries the newest state's slabs and a block is one step. At depth
    [k > 1] halos are widened to [k * radius], the one deep exchange
    carries every retained state's slab, and the block's later [k - 1]
    substeps recompute a shrinking ghost extension instead of exchanging —
    the per-step latency cost drops to [alpha / k] at the price of
    [O(k * radius * face)] redundant compute. The depth is clamped to what
    the thinnest rank supports ({!Decomp.max_uniform_depth}; see
    {!effective_depth}); stepping stays one-timestep granular (stopping
    mid-block is exact). Every depth is bit-identical to the single-grid
    {!Msc_exec.Runtime}. *)

val needs_corners : Msc_ir.Stencil.t -> bool
(** Whether any kernel access touches two or more dimensions at once (box
    corners carry data), requiring diagonal-neighbour exchanges on top of
    the [2*ndim] faces. Star stencils get by with faces only. *)

val create :
  ?config:Msc_exec.Exec.Config.t ->
  ?net:Netmodel.t ->
  ?schedule:Msc_schedule.Schedule.t ->
  ?init:(int array -> float) ->
  ?aux_init:(string -> int array -> float) ->
  ?bc:Msc_exec.Bc.t ->
  ?trace:Msc_trace.t ->
  ranks_shape:int array ->
  Msc_ir.Stencil.t -> t
(** Decomposes the stencil's grid over [ranks_shape] processes. [init] maps a
    {e global} coordinate to the initial value (all past states share it;
    default {!Msc_exec.Runtime.default_init}); [aux_init] likewise gives the
    static coefficient grids as a global closed form (each rank fills its
    slab halo-included, no exchange needed). Each rank's halo traffic
    ({!Halo.plan}) and physical-face boundary refresh ({!Msc_exec.Bc.compile})
    are compiled here, once; initial halo exchanges then run for every
    retained state, from the calling domain.

    [config] carries all three execution knobs. [config.depth] (default 1)
    is the protocol's temporal depth; every depth produces bit-identical
    states. [config.backend] selects the kernel backend of
    every rank's local runtime (compiled kernels are shared across
    equal-extent ranks through the on-disk cache). [config.pool] dispatches
    {e ranks} concurrently (default sequential): worker [w] of [W] steps
    the [w]-th contiguous block of ranks
    ({!Msc_util.Domain_pool.parallel_ranges}) for the whole run, one pool
    region per step; each rank's local runtime sweeps its own
    tiles sequentially. [net] attaches a network cost
    model to the MPI simulator, so every message carries a simulated
    in-flight latency — {!Mpi_sim.slot_wait} sleeps out the remainder, making
    the overlap window measurable in wall-clock traces.

    [trace] instruments every rank's local runtime (spans tagged with the
    rank as [tid]), each rank's halo traffic (one ["halo.pack"],
    ["halo.exchange"] and ["halo.unpack"] span and one ["halo.bytes"]
    counter per rank per exchange, see {!Halo.post}), a ["halo.window"]
    span over each initial exchange (one per retained state; on a rank
    swept whole, ["halo.exchange"] is empty), for each rank that took the
    split a ["halo.overlap"] span over its interior sub-sweep (the window
    the exchange hides behind) plus a ["halo.shell"] span over its
    boundary sub-sweep, and per exchange a ["dist.cross_worker_messages"]
    counter (its messages whose sender and receiver ranks belong to
    different pool workers) and a ["dist.overlapped_ranks"] counter (the
    ranks that took the split); a temporal block deeper than 1 adds a
    ["halo.substep"] span per rank over each communication-free substep.
    @raise Invalid_argument if the halo is thinner than the stencil radius,
    the decomposition is invalid, any rank is thinner than the exchange
    width ([effective_depth * radius]) in some dimension (the message
    names the rank, the dimension and the extent), [config.depth < 1] (the
    message names the depth), or an effective depth [> 1] is combined with
    [Reflect] boundaries (the mirrored halo cannot be recomputed
    locally). *)

val nranks : t -> int
val decomp : t -> Decomp.t
val mpi : t -> Mpi_sim.t

val effective_depth : t -> int
(** The temporal block depth actually in use: [config.depth] clamped to
    {!Decomp.max_uniform_depth} (ranks thinner than [depth * radius]
    cannot host the deep halo). *)

val steps_done : t -> int

val step : t -> unit
(** One timestep of the protocol: the first step of a block posts its
    exchange and sweeps every rank's interior while it is in flight, then
    its shell; later steps of a deep block are communication-free
    substeps. *)

val run : t -> int -> unit

val rank_state : t -> rank:int -> Msc_exec.Grid.t
(** The rank's newest state. *)

val rank_runtime : t -> rank:int -> Msc_exec.Runtime.t
(** The rank's local runtime — matrix-free solvers use it to write
    operator inputs into the rank states ({!Msc_exec.Runtime.state}) and
    read sweep outputs back. At depth 1 a {!step} exchanges the newest
    retained state ([dt = 1]) and refreshes its physical faces before any
    cell that reads them is swept, so a state written through here needs
    only its interior: the step itself makes its halos coherent.
    @raise Invalid_argument on an out-of-range rank. *)

val reduce : t -> op:Msc_ir.Reduce.op -> float
(** Reduce the newest distributed state to one scalar every rank agrees
    on: per-rank tile partials on the rank runtime's own tiling (compiled
    fast path when [config.backend] allows, same rules as
    {!Msc_exec.Reduction}), a local {!Msc_ir.Reduce.tree_combine} per
    rank, {!Mpi_sim.allreduce} across ranks (real mailbox traffic, priced
    by the attached {!Netmodel}), and a single
    {!Msc_ir.Reduce.finalize}. Every fold runs in tile/rank index order,
    so the result is bit-stable across depths and pool sizes.
    [Dot] is not available here (the state is a single vector);
    solver-owned vector pairs use {!Msc_exec.Reduction} directly.
    @raise Invalid_argument on [Dot]. *)

val gather : t -> Msc_exec.Grid.t
(** Assemble the global newest state from all ranks. *)

val validate :
  ?config:Msc_exec.Exec.Config.t ->
  ?steps:int -> ?bc:Msc_exec.Bc.t -> ranks_shape:int array -> Msc_ir.Stencil.t ->
  float
(** Runs the distributed and the single-grid runtimes side by side — both
    under [config]'s backend — and returns the max relative error between
    the gathered and the single-grid result (0.0 = bit-identical). *)

(** {1 Pipeline graphs}

    A distributed graph run executes the whole staged schedule on every
    rank per step and refreshes halos with {e one} deep exchange of the
    stepped state, sized by {!Msc_graph.Graph.required_halo} — the
    shared-halo execution the {!Msc_graph.Pass.merge_halos} pass opts a
    graph into. Multi-stage graphs are {e merged-only}: exchanging each
    intermediate buffer separately is not supported (the slab packing
    cannot refresh the extension-by-halo corner regions an extended
    downstream sweep reads), so an unmerged multi-stage graph is
    rejected at [create_graph]. Stage sweeps recompute their ghost
    extensions from the deep source halo instead, exactly as the
    single-node graph runtime does, so the gathered state stays
    bit-identical to it. *)

val create_graph :
  ?config:Msc_exec.Exec.Config.t ->
  ?net:Netmodel.t ->
  ?schedule:Msc_schedule.Schedule.t ->
  ?init:(int array -> float) ->
  ?aux_init:(string -> int array -> float) ->
  ?bc:Msc_exec.Bc.t ->
  ?trace:Msc_trace.t ->
  ranks_shape:int array ->
  Msc_graph.Graph.t -> t
(** Decompose a pipeline graph over [ranks_shape]. Ranks are built, plans
    compiled, halos exchanged and blocks stepped exactly as in {!create}
    (same parameters, rules and exceptions), with the graph's
    {!Msc_graph.Graph.required_halo} as the exchange width. A graph steps
    as one stage whose producers run tile-local inside each task, so the
    overlapped split keeps cells at least the required halo from every
    face in the interior sub-sweep that hides the exchange. Graphs
    have no temporal block to deepen (intermediates are recomputed per
    step, not stepped), so a graph steps at depth 1. It is bit-identical
    to {!Msc_exec.Runtime.step} on one grid.
    @raise Invalid_argument additionally if the graph is multi-stage but
    not merged (run {!Msc_graph.Pass.merge_halos}), or [config.depth > 1]
    (a silent clamp would misreport the communication-avoiding regime —
    request depth 1). *)

val validate_graph :
  ?config:Msc_exec.Exec.Config.t ->
  ?steps:int -> ?bc:Msc_exec.Bc.t -> ranks_shape:int array ->
  Msc_graph.Graph.t -> float
(** {!validate} for pipeline graphs: distributed staged run vs the
    single-node graph runtime (0.0 = bit-identical). *)
