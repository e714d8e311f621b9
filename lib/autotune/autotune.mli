(** Auto-tuning driver reproducing §5.4 / Figure 11: tune the tile sizes and
    MPI grid shape of a large-scale stencil run on the Sunway platform. *)

type result = {
  initial : Params.config;
  initial_time_s : float;  (** true (simulated) per-step time *)
  best : Params.config;
  best_time_s : float;
  improvement : float;  (** initial / best *)
  iterations : int;
  model_r2 : float;
  trace : (int * float) list;  (** (iteration, best predicted time so far) *)
  plan_cache_hits : int;
      (** plan-cache lookups served from the memo (re-visited candidates) *)
  plan_cache_misses : int;  (** distinct candidate schedules lowered *)
}

val plan_of :
  ?cache:Msc_schedule.Plan.Cache.t ->
  make_stencil:(int array -> Msc_ir.Stencil.t) ->
  global:int array ->
  Params.config ->
  (Msc_schedule.Plan.t, string) Stdlib.result
(** Lower one candidate configuration (per-rank subgrid + clamped canonical
    Sunway schedule) to a plan, through [cache] when given. *)

val true_cost :
  ?cache:Msc_schedule.Plan.Cache.t ->
  ?net:Msc_comm.Netmodel.t ->
  ?backend:Msc_exec.Backend.t ->
  make_stencil:(int array -> Msc_ir.Stencil.t) ->
  global:int array ->
  Params.config ->
  float
(** Ground-truth objective: per-step time = node simulation with the config's
    (clamped) tile + network-model halo exchange for the config's process
    grid — the terms the paper's model lists (kernel, packing, transfer).
    The config's temporal-block depth is clamped to what the sub-grid
    geometry and the scratchpad allow, then priced as the
    communication-avoiding temporal block executes it: node time inflated by
    {!Msc_comm.Scaling.temporal_compute_factor}, exchange slabs widened to
    [depth * radius] (every retained state included) and amortised over the
    block, so the alpha term drops as [alpha / depth]. [net] (default
    {!Msc_comm.Netmodel.sunway_taihulight}) selects the interconnect — a
    latency-bound network such as {!Msc_comm.Netmodel.tianhe3_prototype}
    rewards [depth > 1]. [backend] (default [Compiled_c]) scales the node
    simulation's arithmetic phase ({!Msc_sunway.Sim.simulate}), so tuning
    for an interpreter-hosted run prices compute accordingly. The node
    simulation reuses the memoized plan when [cache] is given. *)

val exhaustive :
  ?max_configs:int ->
  ?net:Msc_comm.Netmodel.t ->
  make_stencil:(int array -> Msc_ir.Stencil.t) ->
  global:int array ->
  nranks:int ->
  unit ->
  (Params.config * float) option
(** Evaluate the true cost of every configuration in the space (tile ladders
    x process-grid factorisations x temporal depths) and return the optimum,
    or [None] when the space exceeds [max_configs] (default 20_000) — the
    reference the annealer is measured against in the ablation study. *)

(** {1 Scale-out search (rank-grid shape x temporal depth)} *)

type scale_choice = {
  sc_grid : int array;  (** rank grid shape *)
  sc_sub : int array;  (** per-rank sub-grid (ceil division) *)
  sc_depth : int;  (** temporal depth after the geometric cap *)
  sc_compute_s : float;  (** per step, ghost inflation included *)
  sc_comm_s : float;
  sc_time_s : float;  (** overlapped per-step time, the ranking key *)
}

val tune_scale :
  ?depths:int list ->
  ?ranks_per_node:int ->
  platform:Msc_comm.Scaling.platform ->
  make_stencil:(int array -> Msc_ir.Stencil.t) ->
  global:int array ->
  nranks:int ->
  unit ->
  scale_choice * scale_choice list
(** Exhaustive joint search over every rank-grid factorisation that fits
    the global extents ({!Params.mpi_grid_candidates}) and every temporal
    depth rung ([depths], default {!Params.depth_candidates}, each capped
    by the sub-grid geometry), priced purely analytically:
    {!Msc_comm.Scaling.node_compute_time} (memoised per distinct sub-grid)
    inflated by the ghost factor, plus the hierarchical
    {!Msc_comm.Scaling.comm_time} ([ranks_per_node] defaults to the
    platform's {!Msc_comm.Scaling.ranks_per_node}), combined with the
    overlapped-protocol formula. Returns the winner and the whole ranking,
    best first (ties keep enumeration order, so the result is
    deterministic). On a latency-bound interconnect at large rank counts
    the winner moves off the naive square-grid depth-1 default — a skewed
    grid that shortens the congested direction fan, a deep block that
    amortises alpha, or both.
    @raise Invalid_argument when no factorisation fits [global]. *)

val tune :
  ?seed:int ->
  ?iterations:int ->
  ?net:Msc_comm.Netmodel.t ->
  ?backend:Msc_exec.Backend.t ->
  ?trace:Msc_trace.t ->
  make_stencil:(int array -> Msc_ir.Stencil.t) ->
  global:int array ->
  nranks:int ->
  unit ->
  result
(** Train the regression model on sampled configurations, anneal over it,
    report true times for the initial and best configurations. Deterministic
    per seed. One {!Msc_schedule.Plan.Cache} is shared by the model features
    and every true-cost simulation, so each distinct candidate schedule is
    lowered at most once ([plan_cache_hits]/[plan_cache_misses] report the
    traffic).

    [trace] records every true-cost evaluation as a ["tune.trial"] span
    (with a [tune.trials] counter), the model fit as ["tune.model_train"],
    and the annealer's Metropolis decisions via {!Anneal.minimize}. *)
