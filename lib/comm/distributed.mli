(** Functional distributed runtime: the stencil runs on per-rank sub-grids
    with real halo exchanges through the MPI simulator; results are
    gatherable and bit-comparable against a single-grid run.

    This is the correctness substrate behind the scalability experiments —
    the cost side lives in {!Scaling}. *)

type t

(** The halo-exchange engine, shared with {!Msc_exec.Exec.engine} (the
    constructors below re-export it, so either path's constructors match). *)
type engine = Msc_exec.Exec.engine =
  | Bulk_synchronous
      (** The parity reference: every rank sweeps all its tiles, then the
          freshly produced state is exchanged with no compute in flight. *)
  | Overlapped
      (** The paper's asynchronous protocol (§4.4, Figure 6c): each step
          posts every rank's sends, sweeps the halo-free interior while the
          messages are in flight, then completes the receives and sweeps
          the boundary shell. It steps as the depth-1 block of
          [Temporal_blocked] (same protocol, same traffic: the newest
          state's slabs, one message per neighbour). Bit-identical to
          [Bulk_synchronous]. *)
  | Temporal_blocked of { depth : int }
      (** Communication-avoiding temporal blocking: halos are widened to
          [depth * radius], one deep exchange (a single message per
          neighbour carrying every retained state's slab; at depth 1 only
          the newest state's, exactly [Overlapped]) feeds a block of
          [depth] timesteps, and each substep recomputes a shrinking ghost
          extension instead of exchanging — the per-step latency cost drops
          to [alpha / depth] at the price of [O(depth * radius * face)]
          redundant compute. The first substep of each block overlaps the
          deep exchange with its halo-free core, like [Overlapped]. [depth]
          is clamped to what the thinnest rank supports
          ({!Decomp.max_uniform_depth}; see {!effective_depth}); stepping
          stays one-timestep granular (stopping mid-block is exact).
          Bit-identical to the other engines at every depth. *)

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
    retained state.

    [config] carries all three execution knobs. [config.engine] (default
    [Overlapped]) selects the stepping protocol; all engines produce
    bit-identical states. [config.backend] selects the kernel backend of
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
    span over each bulk exchange, and — in the overlapped and temporal
    engines — a ["halo.overlap"] span per rank over the interior sub-sweep
    (the window the exchange hides behind) plus a ["halo.shell"] span over
    the boundary sub-sweep, and a ["dist.cross_worker_messages"] counter
    per exchange (its messages whose sender and receiver ranks belong to
    different pool workers); a temporal block deeper than 1 adds a
    ["halo.substep"] span per rank over each communication-free substep.
    @raise Invalid_argument if the halo is thinner than the stencil radius,
    the decomposition is invalid, any rank is thinner than the exchange
    width ([effective_depth * radius]) in some dimension (the message
    names the rank, the dimension and the extent), a temporal depth [< 1]
    is requested, or [Temporal_blocked] with effective depth [> 1] is
    combined with [Reflect] boundaries (the mirrored halo cannot be
    recomputed locally). *)

val nranks : t -> int
val decomp : t -> Decomp.t
val mpi : t -> Mpi_sim.t

val engine : t -> engine
(** The engine the caller requested ([config.engine], verbatim). *)

val effective_engine : t -> engine
(** The protocol actually stepping. Differs from {!engine} in exactly two
    recorded cases: a [Temporal_blocked] request reports its {e clamped}
    depth ({!effective_depth}), and a graph run's
    [Temporal_blocked {depth = 1}] reports [Bulk_synchronous] (graphs
    have no temporal block; deeper requests are rejected at
    {!create_graph}). *)

val effective_depth : t -> int
(** The temporal block depth actually in use: the requested
    [Temporal_blocked] depth clamped to {!Decomp.max_uniform_depth} (ranks
    thinner than [depth * radius] cannot host the deep halo). [1] for the
    other engines. *)

val steps_done : t -> int

val step : t -> unit
(** One timestep: local sweeps on every rank plus the halo exchange, ordered
    per the engine. *)

val run : t -> int -> unit

val rank_state : t -> rank:int -> Msc_exec.Grid.t
(** The rank's newest state. *)

val rank_runtime : t -> rank:int -> Msc_exec.Runtime.t
(** The rank's local runtime — matrix-free solvers use it to write
    operator inputs into the rank states ({!Msc_exec.Runtime.state}) and
    read sweep outputs back, with {!refresh_halos} in between.
    @raise Invalid_argument on an out-of-range rank. *)

val refresh_halos : t -> unit
(** One halo-exchange round for {e every} retained state (plus the
    physical-face boundary pass), outside the stepping protocol — exactly
    the exchange {!create} runs before the first step. Solvers call this
    after overwriting rank interiors (e.g. loading a Krylov direction
    into the state) so the next {!step} reads coherent neighbour data. *)

val reduce : t -> op:Msc_ir.Reduce.op -> float
(** Reduce the newest distributed state to one scalar every rank agrees
    on: per-rank tile partials on the rank runtime's own tiling (compiled
    fast path when [config.backend] allows, same rules as
    {!Msc_exec.Reduction}), a local {!Msc_ir.Reduce.tree_combine} per
    rank, {!Mpi_sim.allreduce} across ranks (real mailbox traffic, priced
    by the attached {!Netmodel}), and a single
    {!Msc_ir.Reduce.finalize}. Every fold runs in tile/rank index order,
    so the result is bit-stable across engines and pool sizes.
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
    compiled, halos exchanged and engines stepped exactly as in {!create}
    (same parameters, rules and exceptions), with the graph's
    {!Msc_graph.Graph.required_halo} as the exchange width. A graph steps
    as one stage whose producers run tile-local inside each task, so the
    overlapped split keeps cells at least the required halo from every
    face in the interior sub-sweep that hides the exchange. Graphs
    have no temporal block to deepen (intermediates are recomputed per
    step, not stepped): [Temporal_blocked {depth = 1}] steps as, and is
    recorded in {!effective_engine} as, [Bulk_synchronous]. All engines
    are bit-identical to {!Msc_exec.Runtime.step} on one grid.
    @raise Invalid_argument additionally if the graph is multi-stage but
    not merged (run {!Msc_graph.Pass.merge_halos}), or [config.engine] is
    [Temporal_blocked] with [depth > 1] (a silent degrade would misreport
    the communication-avoiding regime — request depth 1 or a non-temporal
    engine). *)

val validate_graph :
  ?config:Msc_exec.Exec.Config.t ->
  ?steps:int -> ?bc:Msc_exec.Bc.t -> ranks_shape:int array ->
  Msc_graph.Graph.t -> float
(** {!validate} for pipeline graphs: distributed staged run vs the
    single-node graph runtime (0.0 = bit-identical). *)
