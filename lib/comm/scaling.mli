(** Strong/weak scalability estimation (Figure 10): per-rank node performance
    comes from the processor simulators, halo-exchange cost from the network
    model, and computation/communication overlap follows the asynchronous
    design of §4.4. *)

type platform = Sunway | Tianhe3

type point = {
  ranks : int;
  cores : int;  (** ranks x cores-per-rank (65 on Sunway CGs, 32 on Matrix) *)
  mpi_grid : int array;
  sub_grid : int array;
  compute_s : float;  (** per step, per rank *)
  comm_s : float;  (** per step, per rank *)
  time_per_step_s : float;
  gflops : float;  (** aggregate achieved *)
  ideal_gflops : float;  (** linear extrapolation from the smallest run *)
}

val cores_per_rank : platform -> int

val ranks_per_node : platform -> int
(** Ranks sharing one physical node (4 CGs on a TaihuLight node, 8 MT-3000
    clusters on a Tianhe-3 blade) — the default node size of the
    hierarchical cost model. *)

val node_compute_time : platform -> Msc_ir.Stencil.t -> float
(** Analytic per-step compute time of one rank's sub-grid on the platform's
    node simulator (Sunway CG / Matrix cluster) under the canonical
    schedule — the model-evaluated term the scaling curves and the
    scale-out tuner combine with {!comm_time}; no wall-clock measurement
    anywhere. *)

val allreduce_time : ?bytes:int -> platform -> ranks:int -> float
(** One distributed allreduce (a solver residual/dot, [bytes] = 8 by
    default) on the platform's interconnect:
    {!Netmodel.allreduce_time} under recursive doubling — the same
    alpha-beta pricing as halo messages. *)

val comm_time :
  ?depth:int ->
  ?time_window:int ->
  ?allreduces_per_step:int ->
  ?ranks_per_node:int ->
  platform ->
  ranks:int ->
  sub_grid:int array ->
  radius:int array ->
  elem:int ->
  faces_only:bool ->
  float
(** Per-step halo-exchange cost of one rank: the directions {!Halo} actually
    exchanges (faces, or all offsets for box stencils), each paying the
    congested per-message setup {e at its own payload size} plus payload
    streaming. [depth] (default 1) prices a communication-avoiding
    temporal block: slabs widen to [depth * radius], corners are always
    exchanged, every message carries [time_window] state slabs — and the
    whole exchange is amortised over the [depth] timesteps it feeds, so the
    alpha term drops as [alpha / depth]. [allreduces_per_step] (default 0)
    adds that many {!allreduce_time} collectives per {e true} timestep —
    solver residual checks and Krylov dots, which temporal blocking cannot
    amortise, so they sit outside the [depth] divide.

    [ranks_per_node] (default 1 = flat) switches on hierarchical two-level
    pricing: the rank grid splits into node blocks ({!Decomp.core_shape}),
    faces between ranks of the same node are {!Netmodel.shared_memory}
    copies, and off-node traffic is aggregated into one message per
    neighbouring node and direction (corner/edge aggregation), priced on
    the platform interconnect at node — not rank — concurrency.
    @raise Invalid_argument if [depth < 1], [allreduces_per_step < 0] or
    [ranks_per_node < 1]. *)

val temporal_compute_factor :
  sub_grid:int array -> radius:int array -> depth:int -> float
(** Redundant-ghost compute inflation of a depth-[k] temporal block:
    substep [s] sweeps the interior grown by [(k-1-s) * radius] per side,
    so the factor is [sum_s prod_d (n_d + 2(k-1-s) r_d) / (k prod_d n_d)]
    — [1.0] at depth 1, growing by [O(k * radius * face / volume)].
    @raise Invalid_argument if [depth < 1]. *)

val run :
  platform:platform ->
  make_stencil:(int array -> Msc_ir.Stencil.t) ->
  configs:(int array * int array) list ->
  point list
(** [configs] pairs an MPI grid shape with the per-rank sub-grid extents
    (Table 7 rows; for strong scaling the sub-grid shrinks as ranks grow, for
    weak scaling it is constant). The stencil builder receives the sub-grid
    extents. *)

val speedup_vs_first : point list -> float
(** Achieved perf at the largest scale over the smallest (the paper reports
    6.74x strong / 7.85x weak on Sunway when cores scale 8x). *)

(** {1 Efficiency curves (scale-out campaign, 16 - 16k ranks)} *)

type eff_point = {
  e_ranks : int;
  e_grid : int array;  (** balanced rank grid at this scale *)
  e_sub : int array;  (** per-rank sub-grid *)
  e_depth : int;  (** temporal depth after the geometric cap *)
  e_compute_s : float;  (** per step, redundant-ghost inflation included *)
  e_comm_s : float;
  e_time_s : float;  (** overlapped step time *)
  e_efficiency : float;  (** parallel efficiency vs the first ladder point *)
}

val efficiency_curve :
  ?depth:int ->
  ?ranks_per_node:int ->
  platform ->
  make_stencil:(int array -> Msc_ir.Stencil.t) ->
  mode:[ `Strong | `Weak ] ->
  base:int array ->
  ladder:int list ->
  eff_point list
(** Strong/weak parallel-efficiency curve over a rank ladder, hierarchical
    by default ([ranks_per_node] defaults to the platform's
    {!ranks_per_node}). [base] is the global grid under [`Strong] (the
    per-rank sub-grid shrinks as ranks grow, floored at one point per
    dimension) and the constant per-rank sub-grid under [`Weak]. [depth]
    asks for temporal blocking; each point caps it geometrically at the
    sub-grid's thinnest extent over the radius. Efficiency is per-core
    throughput of swept points relative to the first ladder point, so
    exact strong scaling reads 1.0 down the column and weak scaling is
    [t_first / t_n]. Node-simulator calls are memoised per sub-grid.
    @raise Invalid_argument if [depth < 1]. *)
