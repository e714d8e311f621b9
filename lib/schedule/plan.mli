(** The lowered execution plan: one artifact every backend shares.

    [compile] validates a schedule once against every kernel of a stencil and
    produces everything the consumers used to re-derive independently:

    - the lowered loop list (what the C emitters walk),
    - a materialized tile task array in the traversal order the [reorder]
      primitive dictates (what the native runtime and the cache-trace
      replayer sweep, and what the distributed runtime shares across ranks),
    - the parallel assignment (sequential / block-threads / round-robin CPE
      tasks),
    - the DMA/SPM staging plan and stream counts (what the Sunway simulator
      costs and the athread emitter stages),
    - derived metrics: [tiles_count], [working_set_bytes], [reuse_factor]
      (what the performance model and the Matrix cache model consume).

    After this layer, no module outside [lib/schedule] queries
    {!Schedule.tile_sizes}/{!Schedule.parallel_spec}/{!Schedule.validate}
    directly. *)

type parallel =
  | Seq  (** no parallel primitive: one sequential sweep *)
  | Block of int  (** OpenMP-style static blocks over [n] threads *)
  | Round_robin of int  (** athread-style [mod(task, n)] CPE assignment *)

type t = {
  stencil : Msc_ir.Stencil.t;
  schedule : Schedule.t;
  digest : string;
      (** stable hex digest of (stencil, schedule) — the key of the
          compiled-kernel disk cache; plans lowered from equal inputs get
          equal digests across processes *)
  machine : Msc_machine.Machine.t option;
  nests : Loopnest.t list;  (** per-kernel lowerings, kernel order *)
  loops : Loopnest.loop list;  (** the shared loop nest, outermost first *)
  tile : int array;  (** effective tile extents (grid shape when untiled) *)
  padded_tile : int array;  (** tile + twice the stencil radius per dim *)
  tasks : (int array * int array) array;
      (** interior (lo, hi) spans of every tile, enumerated in the traversal
          order of the schedule's outer loops — [reorder] changes this *)
  parallel : parallel;
  dma : Loopnest.dma_plan option;  (** staging plan of the first kernel *)
  n_state_streams : int;  (** distinct time states read per point *)
  n_aux_streams : int;  (** distinct coefficient grids staged per tile *)
  tiles_count : int;
  tile_elems : int;  (** interior points per full tile *)
  padded_elems : int;  (** points per tile including the halo ring *)
  working_set_bytes : int;
      (** per-tile scratch: one padded read buffer per stream plus the write
          tile — the quantity that must fit in a CPE scratchpad and the
          Matrix cache model's working set *)
  reuse_factor : float;
  spm_capacity_bytes : int option;  (** from the machine descriptor *)
}

val compile :
  ?machine:Msc_machine.Machine.t ->
  Msc_ir.Stencil.t ->
  Schedule.t ->
  (t, string) result
(** Validate [schedule] against every kernel of the stencil, then lower.
    [machine] only supplies capacity metadata ([spm_capacity_bytes]); the
    plan itself is machine-independent. *)

val compile_exn : ?machine:Msc_machine.Machine.t -> Msc_ir.Stencil.t -> Schedule.t -> t

val split_tasks :
  core_lo:int array ->
  core_hi:int array ->
  (int array * int array) array ->
  (int array * int array) array * (int array * int array) array
(** Partition every task box against the core box [\[core_lo, core_hi)]:
    [(interior, shell)] where the interior boxes lie inside the core and the
    shell boxes outside it. The split boxes are pairwise disjoint and cover
    each task exactly (qcheck-pinned), so sweeping interior and shell in any
    order — or in different phases — computes every cell exactly once. Each
    half preserves the tasks' traversal order. The distributed runtime uses
    this to hide the halo exchange behind the interior sub-sweep. *)

val interior_shell : t -> (int array * int array) array * (int array * int array) array
(** {!split_tasks} against the stencil's own core: cells at least the
    stencil radius away from every face. Interior cells read no halo data,
    so their sub-sweep can run while halo messages are in flight; the shell
    sub-sweep needs the completed exchange. An extent thinner than twice the
    radius has an empty interior (every cell is shell). *)

val temporal :
  shape:int array ->
  radius:int array ->
  depth:int ->
  grow_low:bool array ->
  grow_high:bool array ->
  (int array * int array) array ->
  (int array * int array) array array
(** [temporal ~shape ~radius ~depth ~grow_low ~grow_high tasks] materialises
    the per-substep task arrays of a depth-[k] communication-avoiding
    temporal block. Substep [s] (0-based) sweeps the interior grown by
    [(k-1-s) * radius] cells into the halo on every face whose [grow_*]
    flag is set (faces with an exchanged deep halo); the final substep
    sweeps exactly [tasks]. Each substep array is the original [tasks]
    (traversal order preserved) with the disjoint extension boxes appended,
    so sweeping it computes every grown cell exactly once.
    @raise Invalid_argument if [depth < 1] or the array ranks mismatch. *)

(** {1 Reduction lowering}

    A grid reduction ({!Msc_ir.Reduce}) lowers to the plan's own tile
    tasks — each producing one sequential row-major partial — plus a fixed
    pairwise combine tree over the task index. The tree is data-independent
    (it only depends on the task count), so executors can fill partials in
    any order, on any number of workers, and fold deterministically. *)

type reduce_plan = {
  rp_tasks : (int array * int array) array;
      (** per-tile interior (lo, hi) boxes, the plan's traversal order; one
          partial per task, accumulated sequentially row-major *)
  rp_combine : (int * int) array array;
      (** combine schedule, levels outermost: each level's [(dst, src)]
          folds are independent of one another; executing every level in
          order folds partial [src] into partial [dst], leaving the result
          in index [0]. Matches {!Msc_ir.Reduce.tree_combine} exactly. *)
}

val combine_levels : int -> (int * int) array array
(** The stride-doubling pairwise tree over [n] partials: level [s] holds
    [(i, i + s)] for [i = 0, 2s, 4s, ...]. Empty for [n <= 1].
    @raise Invalid_argument if [n < 1]. *)

val reduce_plan : t -> reduce_plan
(** Lower this plan's tiling into a reduction schedule over the same
    interior boxes. *)

(** {1 Pipeline graph plans}

    {!compile_graph} lowers a whole {!Msc_graph.Graph.t} into an ordered
    stage-plan list sharing one index space: every tensor is rebuilt to
    the graph's {!Msc_graph.Graph.required_halo} (and, for distributed
    ranks, the local [shape]), each stage gets its own {!t} under the same
    schedule, and intermediate results are assigned window slots with
    liveness-driven reuse — a dead intermediate's slot is handed to a
    later stage (double buffering falls out for chains). The runtime
    computes every intermediate tile-local, per task, into the per-worker
    window of its slot ({!Msc_exec.Runtime.create_graph}); no slot is a
    full-size grid. *)

type graph_stage_plan = {
  gs_name : string;
  gs_stencil : Msc_ir.Stencil.t;  (** reshaped to the uniform deep halo *)
  gs_plan : t;
  gs_ext : int array;
      (** ghost-zone extension this stage is computed on (zero for the
          output stage): the runtime grows each output task by it *)
  gs_buffer : int option;
      (** window slot holding the stage's result for the task being
          swept; [None] = this is the output stage, written to the
          stepped state *)
}

type graph_plan = {
  gp_graph : Msc_graph.Graph.t;  (** the reshaped graph *)
  gp_stages : graph_stage_plan list;  (** topological order *)
  gp_n_buffers : int;  (** window slots per worker after reuse *)
  gp_halo : int array;  (** the uniform halo every tensor was rebuilt to *)
  gp_time_window : int;
  gp_merged : bool;
  gp_exchanges_per_step : int;
      (** halo exchanges a distributed step performs: 1 when merged *)
  gp_naive_exchanges_per_step : int;
      (** the per-stage-exchange baseline (one per stage) the merge saves
          against — the bench's exchanges/step comparison *)
}

val compile_graph :
  ?machine:Msc_machine.Machine.t ->
  ?shape:int array ->
  Msc_graph.Graph.t ->
  Schedule.t ->
  (graph_plan, string) result
(** Reshape the graph to its required halo (and [shape], when given — the
    distributed runtime passes each rank's local extent), then lower every
    stage against [schedule]. Fails with the offending stage's name if any
    stage rejects the schedule. *)

val spm_fits : t -> bool
(** [working_set_bytes <= spm_capacity_bytes] (true when the machine has no
    scratchpad). *)

val outer_dims : t -> int list
(** Dimensions of the tile-index loops, outermost first — the traversal
    order [tasks] is enumerated in. *)

val pp : Format.formatter -> t -> unit

(** Memoizing plan compiler for the auto-tuner: annealing revisits the same
    (stencil, schedule) points many times; each distinct pair is lowered and
    validated exactly once. *)
module Cache : sig
  type plan := t
  type t

  val create : ?machine:Msc_machine.Machine.t -> unit -> t
  val compile : t -> Msc_ir.Stencil.t -> Schedule.t -> (plan, string) result
  val hits : t -> int
  val misses : t -> int

  type stats = { hits : int; misses : int }

  val stats : t -> stats
end
