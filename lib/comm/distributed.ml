open Msc_ir
module Grid = Msc_exec.Grid
module Runtime = Msc_exec.Runtime
module Bc = Msc_exec.Bc
module Plan = Msc_schedule.Plan
module Exec = Msc_exec.Exec
module G = Msc_graph.Graph

type engine = Exec.engine =
  | Bulk_synchronous
  | Overlapped
  | Temporal_blocked of { depth : int }

type t = {
  stencil : Stencil.t;
  decomp : Decomp.t;
  mpi : Mpi_sim.t;
  runtimes : Runtime.t array;
  offsets : int array array;
  width : int array;  (** exchange width = depth * stencil radius *)
  faces_only : bool;
  bc : Bc.t;
  engine : engine;
  effective_engine : engine;
      (** the protocol actually stepping: [Temporal_blocked] records its
          clamped depth; graph runs degrade [Temporal_blocked {depth = 1}]
          to [Bulk_synchronous] (deeper graph blocks are rejected) *)
  rank_config : Exec.Config.t;
      (** each rank's local config (sequential pool) — reduction executors
          reuse its backend *)
  mutable reducers : Msc_exec.Reduction.t array option;
      (** per-rank reduction executors over the rank state geometry,
          built lazily on the first {!reduce} *)
  depth : int;  (** effective temporal-block depth (1 for other engines) *)
  pool : Msc_util.Domain_pool.t;  (** dispatches ranks, not tiles *)
  halo_plans : Halo.plan array;  (** per rank, compiled at creation *)
  bc_plans : Bc.plan option array;
      (** per rank: the physical-face refresh ([None] when periodic) *)
  phases : ((int array * int array) array * (int array * int array) array) array;
      (** per rank: (interior tasks, boundary-shell tasks) — the first
          substep's tasks split against the cells at least the stencil
          radius from every face (only those read pre-exchange halo data) *)
  sub_tasks : (int array * int array) array array array;
      (** per rank, per substep: the temporal block's shrinking task arrays
          ({!Plan.temporal}); a single plain-tiles substep at depth 1 *)
  mutable block_pos : int;  (** substep position within the current block *)
  trace : Msc_trace.t;
  mutable steps_done : int;
  graph : G.t option;  (** present iff built by [create_graph] *)
}

(* A kernel access touching two or more dimensions at once (box corners)
   requires diagonal-neighbour exchanges; star stencils get by with faces. *)
let needs_corners (st : Stencil.t) =
  List.exists
    (fun k ->
      List.exists
        (fun (a : Expr.access) ->
          Array.fold_left (fun n o -> if o <> 0 then n + 1 else n) 0 a.Expr.offsets
          >= 2)
        (Expr.distinct_accesses k.Kernel.expr))
    (Stencil.kernels st)

let localize_stencil ?halo (st : Stencil.t) ~extent =
  let grid = st.Stencil.grid in
  let local_tensor =
    match halo with
    | None -> { grid with Tensor.shape = Array.copy extent }
    | Some h ->
        (* Deep-halo override (temporal blocking): the local grids carry a
           [depth * radius] halo so one exchange feeds a whole block. *)
        { grid with Tensor.shape = Array.copy extent; Tensor.halo = Array.copy h }
  in
  let localize_kernel k =
    let aux =
      List.map
        (fun (tensor : Tensor.t) ->
          match halo with
          | None -> { tensor with Tensor.shape = Array.copy extent }
          | Some h ->
              { tensor with Tensor.shape = Array.copy extent; Tensor.halo = Array.copy h })
        k.Kernel.aux
    in
    Kernel.make ~bindings:k.Kernel.bindings ~aux ~name:k.Kernel.name
      ~input:local_tensor ~index_vars:k.Kernel.index_vars k.Kernel.expr
  in
  let rec go (e : Stencil.expr) =
    match e with
    | Stencil.Apply (k, dt) -> Stencil.Apply (localize_kernel k, dt)
    | Stencil.State _ -> e
    | Stencil.Scale (c, a) -> Stencil.Scale (c, go a)
    | Stencil.Sum (a, b) -> Stencil.Sum (go a, go b)
    | Stencil.Diff (a, b) -> Stencil.Diff (go a, go b)
  in
  Stencil.make ~name:st.Stencil.name ~grid:local_tensor (go st.Stencil.expr)

(* Which of a rank's faces sit on the physical boundary. *)
let physical_masks decomp ~rank =
  let coords = Decomp.coords_of_rank decomp rank in
  let shape = decomp.Decomp.ranks_shape in
  let low = Array.map (fun c -> c = 0) coords in
  let high = Array.mapi (fun d c -> c = shape.(d) - 1) coords in
  (low, high)

(* Every rank's communication, compiled once: its halo exchange plan and
   its physical-face boundary refresh (none when the domain is periodic:
   the wrapped exchange owns every face). *)
let comm_plans ~bc mpi decomp ~width ~faces_only runtimes =
  let periodic = Bc.equal bc Bc.Periodic in
  let geometry rt = Runtime.state rt ~dt:1 in
  ( Array.mapi
      (fun rank rt ->
        Halo.plan ~periodic mpi decomp ~rank ~grid:(geometry rt) ~width
          ~faces_only)
      runtimes,
    Array.mapi
      (fun rank rt ->
        if periodic then None
        else
          let low, high = physical_masks decomp ~rank in
          Some (Bc.compile ~low ~high bc (geometry rt)))
      runtimes )

let refresh_physical t ~rank g =
  match t.bc_plans.(rank) with Some p -> Bc.run p g | None -> ()

(* One full exchange = the communication window of a timestep: the span
   covers pack, transfer and unpack for every rank and direction. *)
let exchange_state t ~dt =
  let ts_win = Msc_trace.begin_span t.trace in
  let grids = Array.map (fun rt -> [| Runtime.state rt ~dt |]) t.runtimes in
  Array.iteri (fun rank p -> Halo.post ~trace:t.trace p grids.(rank)) t.halo_plans;
  Array.iteri
    (fun rank p -> Halo.complete ~trace:t.trace p grids.(rank))
    t.halo_plans;
  (* Refresh the physical faces after the exchange, so reflect corners can
     read freshly exchanged edge data. *)
  Array.iteri (fun rank g -> refresh_physical t ~rank g.(0)) grids;
  Msc_trace.end_span t.trace "halo.window" ts_win

let create ?(config = Exec.Config.default) ?net ?schedule
    ?(init = fun coord -> Runtime.default_init 1 coord)
    ?(aux_init = Runtime.default_aux_init) ?(bc = Bc.Dirichlet 0.0)
    ?(trace = Msc_trace.disabled) ~ranks_shape (st : Stencil.t) =
  let engine = config.Exec.Config.engine in
  let pool = config.Exec.Config.pool in
  (* The pool dispatches ranks; inside a rank the runtime sweeps its tiles
     sequentially (nested parallelism would oversubscribe), so each rank's
     config keeps the backend but drops to the sequential pool. *)
  let rank_config =
    { config with Exec.Config.pool = Msc_util.Domain_pool.sequential }
  in
  Stencil.validate_halo st;
  let grid = st.Stencil.grid in
  let decomp = Decomp.create ~global:grid.Tensor.shape ~ranks_shape in
  let nranks = decomp.Decomp.nranks in
  let mpi = Mpi_sim.create ?net ~nranks () in
  let offsets = Array.make nranks [||] in
  let radius = Stencil.radius st in
  let requested_depth =
    match engine with
    | Temporal_blocked { depth } ->
        if depth < 1 then
          invalid_arg "Distributed.create: temporal block depth must be >= 1";
        depth
    | Bulk_synchronous | Overlapped -> 1
  in
  (* Clamp the block depth to what the thinnest rank supports: a depth-k
     block needs a [k * radius] halo no wider than the rank itself. *)
  let depth = min requested_depth (Decomp.max_uniform_depth decomp ~radius) in
  if depth > 1 && Bc.equal bc Bc.Reflect then
    invalid_arg
      "Distributed.create: Reflect boundaries are unsupported at temporal \
       block depth > 1 (the mirrored halo cannot be recomputed locally)";
  let width = Array.map (fun r -> depth * r) radius in
  (* Extension cells of a star stencil still read into corner halo regions
     (their own reads bleed diagonally), so depth > 1 always exchanges
     corners. *)
  let faces_only = if depth > 1 then false else not (needs_corners st) in
  let deep_halo =
    if depth > 1 then
      Some (Array.mapi (fun d h -> max h width.(d)) grid.Tensor.halo)
    else None
  in
  let periodic = Bc.equal bc Bc.Periodic in
  let phases = Array.make nranks ([||], [||]) in
  let sub_tasks = Array.make nranks ([||] : (int array * int array) array array) in
  (* One plan per distinct rank extent (uneven decompositions produce at
     most a handful): equal-extent ranks share the same compiled task
     array instead of each rank re-lowering the schedule. *)
  let plans = ref [] in
  let plan_for local ~extent =
    match schedule with
    | None -> None
    | Some sched -> (
        match List.find_opt (fun (e, _) -> e = extent) !plans with
        | Some (_, p) -> Some p
        | None ->
            let p =
              match Plan.compile local sched with
              | Ok p -> p
              | Error msg -> invalid_arg ("Distributed.create: " ^ msg)
            in
            plans := (Array.copy extent, p) :: !plans;
            Some p)
  in
  let runtimes =
    Array.init nranks (fun rank ->
        let offset, extent = Decomp.subdomain decomp ~rank in
        offsets.(rank) <- offset;
        let local = localize_stencil ?halo:deep_halo st ~extent in
        let plan = plan_for local ~extent in
        let local_init _dt coord =
          init (Array.mapi (fun d c -> c + offset.(d)) coord)
        in
        (* Coefficient grids are static closed forms over global coordinates,
           so each rank fills its slab (halo included) directly -- no
           exchange needed and bit-identical to the single-grid run. *)
        let local_aux_init name coord =
          aux_init name (Array.mapi (fun d c -> c + offset.(d)) coord)
        in
        (* The local runtime's own BC pass runs on every face; the exchange
           plus the physical-face pass above overwrite the interior faces
           with the right data afterwards. *)
        let rt =
          Runtime.create ?plan ~config:rank_config ~init:local_init
            ~aux_init:local_aux_init ~bc ~trace ~tid:rank local
        in
        (* Materialise the temporal block's per-substep task arrays: the
           halo extension only grows on faces with a neighbour (physical
           faces are fed by the boundary condition instead). *)
        let coords = Decomp.coords_of_rank decomp rank in
        let grow_low = Array.map (fun c -> periodic || c > 0) coords in
        let grow_high =
          Array.mapi (fun d c -> periodic || c < ranks_shape.(d) - 1) coords
        in
        sub_tasks.(rank) <-
          Plan.temporal ~shape:extent ~radius ~depth ~grow_low ~grow_high
            (Runtime.tiles rt);
        (* Split the first substep's tasks against the rank's halo-free
           core: cells at least the stencil radius from every local face
           read no halo data — the pre-block halo is stale (the previous
           block's last substep swept no extension), so only these cells
           may run while the deep exchange is in flight. A sub-grid thinner
           than twice the radius has an empty interior (every cell waits
           for the exchange). *)
        let core_lo = Array.copy radius in
        let core_hi =
          Array.mapi (fun d n -> max radius.(d) (n - radius.(d))) extent
        in
        phases.(rank) <- Plan.split_tasks ~core_lo ~core_hi sub_tasks.(rank).(0);
        rt)
  in
  let halo_plans, bc_plans =
    comm_plans ~bc mpi decomp ~width ~faces_only runtimes
  in
  let t =
    {
      stencil = st;
      decomp;
      mpi;
      runtimes;
      offsets;
      width;
      faces_only;
      bc;
      engine;
      effective_engine =
        (match engine with
        | Temporal_blocked _ -> Temporal_blocked { depth }
        | (Bulk_synchronous | Overlapped) as e -> e);
      rank_config;
      reducers = None;
      depth;
      pool;
      halo_plans;
      bc_plans;
      phases;
      sub_tasks;
      block_pos = 0;
      trace;
      steps_done = 0;
      graph = None;
    }
  in
  (* Every retained past state needs consistent halos before the first
     step. *)
  for dt = 1 to Stencil.time_window st do
    exchange_state t ~dt
  done;
  t

(* ------------------------------------------------------------------ *)
(* Pipeline graphs. Only shared-halo (merged) execution is supported for
   multi-stage graphs: one deep exchange of the source per step, sized by
   the graph's required halo, feeds every stage's extended sweep. A
   per-stage exchange of intermediate buffers would be unsound with the
   slab-shaped packing [Halo] uses — an intermediate's
   (physical-extension x neighbour-halo) corner cells are computed by the
   owner but lie outside the interior slabs it packs, so box-shaped
   consumers would read stale corners. The merged form sidesteps this:
   every rank recomputes the extension cells it needs from the exchanged
   deep halo, exactly like the temporal engine's ghost zones. *)

let graph_needs_corners (g : G.t) =
  (* Extension cells of even a star stencil read diagonally into corner
     halo regions (their own reads bleed sideways), so any multi-stage
     graph exchanges corners, like temporal blocking at depth > 1. *)
  List.length g.G.stages > 1
  || List.exists (fun (s : G.stage) -> needs_corners s.G.stencil) g.G.stages

let create_graph ?(config = Exec.Config.default) ?net ?schedule
    ?(init = fun coord -> Runtime.default_init 1 coord)
    ?(aux_init = Runtime.default_aux_init) ?(bc = Bc.Dirichlet 0.0)
    ?(trace = Msc_trace.disabled) ~ranks_shape (graph : G.t) =
  let engine = config.Exec.Config.engine in
  let pool = config.Exec.Config.pool in
  let rank_config =
    { config with Exec.Config.pool = Msc_util.Domain_pool.sequential }
  in
  (* Graphs have no temporal block to deepen: intermediates are recomputed
     per step, not stepped, so a depth > 1 request cannot be honored. It
     used to degrade silently to the bulk schedule; now the degrade is
     explicit — depth 1 (bulk-equivalent by definition) is recorded as
     [Bulk_synchronous] in [effective_engine], anything deeper is an
     error the caller must resolve. *)
  (match engine with
  | Temporal_blocked { depth } when depth > 1 ->
      invalid_arg
        (Printf.sprintf
           "Distributed.create_graph: Temporal_blocked depth %d cannot be \
            honored for pipeline graphs (intermediates are recomputed per \
            step, not stepped — there is no block to deepen); use depth 1 \
            or a non-temporal engine"
           depth)
  | Temporal_blocked { depth } when depth < 1 ->
      invalid_arg "Distributed.create_graph: temporal block depth must be >= 1"
  | Temporal_blocked _ | Bulk_synchronous | Overlapped -> ());
  if (not graph.G.merged) && List.length graph.G.stages > 1 then
    invalid_arg
      "Distributed.create_graph: multi-stage graphs need shared-halo \
       (merged) execution — run Pass.merge_halos (or raise its max_width \
       clamp so the pipeline's required halo fits)";
  let source = graph.G.source in
  let width = G.required_halo graph in
  let decomp = Decomp.create ~global:source.Tensor.shape ~ranks_shape in
  let nranks = decomp.Decomp.nranks in
  (* Every rank must be at least one exchange width wide, or the deep
     slabs would read past the donor's interior. *)
  for rank = 0 to nranks - 1 do
    let _, extent = Decomp.subdomain decomp ~rank in
    Array.iteri
      (fun d w ->
        if extent.(d) < w then
          invalid_arg
            (Printf.sprintf
               "Distributed.create_graph: rank %d extent %d < required halo \
                %d in dimension %d (coarsen the decomposition)"
               rank extent.(d) w d))
      width
  done;
  let mpi = Mpi_sim.create ?net ~nranks () in
  let offsets = Array.make nranks [||] in
  let faces_only = not (graph_needs_corners graph) in
  let sched = Option.value schedule ~default:Msc_schedule.Schedule.empty in
  let phases = Array.make nranks ([||], [||]) in
  (* One graph plan per distinct rank extent, shared like single-stencil
     plans. *)
  let plans = ref [] in
  let plan_for ~extent =
    match List.find_opt (fun (e, _) -> e = extent) !plans with
    | Some (_, p) -> p
    | None -> (
        match Plan.compile_graph ~shape:extent graph sched with
        | Ok p ->
            plans := (Array.copy extent, p) :: !plans;
            p
        | Error msg -> invalid_arg ("Distributed.create_graph: " ^ msg))
  in
  let runtimes =
    Array.init nranks (fun rank ->
        let offset, extent = Decomp.subdomain decomp ~rank in
        offsets.(rank) <- offset;
        let graph_plan = plan_for ~extent in
        let local_init _dt coord =
          init (Array.mapi (fun d c -> c + offset.(d)) coord)
        in
        let local_aux_init name coord =
          aux_init name (Array.mapi (fun d c -> c + offset.(d)) coord)
        in
        let rt =
          Runtime.create_graph ~graph_plan ~config:rank_config
            ~init:local_init ~aux_init:local_aux_init ~bc ~trace ~tid:rank
            graph
        in
        (* Overlapped phase split for stage 0 (the only stage that can run
           while the source exchange is in flight): cells at least the
           stage radius from every local face read no dt = 1 halo data.
           Every ghost-extension box lands in the shell by construction. *)
        let r0 =
          match graph_plan.Plan.gp_stages with
          | sp :: _ -> Stencil.radius sp.Plan.gs_stencil
          | [] -> assert false
        in
        let core_lo = Array.copy r0 in
        let core_hi =
          Array.mapi (fun d n -> max r0.(d) (n - r0.(d))) extent
        in
        phases.(rank) <-
          Plan.split_tasks ~core_lo ~core_hi (Runtime.graph_stage_tasks rt 0);
        rt)
  in
  let halo_plans, bc_plans =
    comm_plans ~bc mpi decomp ~width ~faces_only runtimes
  in
  let t =
    {
      stencil = (G.output_stage graph).G.stencil;
      decomp;
      mpi;
      runtimes;
      offsets;
      width;
      faces_only;
      bc;
      engine;
      effective_engine =
        (match engine with
        | Temporal_blocked _ -> Bulk_synchronous
        | (Bulk_synchronous | Overlapped) as e -> e);
      rank_config;
      reducers = None;
      depth = 1;
      pool;
      halo_plans;
      bc_plans;
      phases;
      sub_tasks = Array.make nranks [||];
      block_pos = 0;
      trace;
      steps_done = 0;
      graph = Some graph;
    }
  in
  for dt = 1 to G.time_window graph do
    exchange_state t ~dt
  done;
  t

let nranks t = Array.length t.runtimes
let decomp t = t.decomp
let mpi t = t.mpi
let engine t = t.engine
let effective_engine t = t.effective_engine
let effective_depth t = t.depth
let steps_done t = t.steps_done

let rank_runtime t ~rank =
  if rank < 0 || rank >= Array.length t.runtimes then
    invalid_arg
      (Printf.sprintf "Distributed.rank_runtime: rank %d out of [0,%d)" rank
         (Array.length t.runtimes));
  t.runtimes.(rank)

let refresh_halos t =
  let tw =
    match t.graph with
    | Some g -> G.time_window g
    | None -> Stencil.time_window t.stencil
  in
  for dt = 1 to tw do
    exchange_state t ~dt
  done

(* Collective reduction over the newest distributed state: per-rank tile
   partials (the rank's own plan tiling, same backend as its sweeps)
   combined locally in tree order, rank partials allreduced through the
   mailbox, one finalize at the end. Every fold is index-ordered, so the
   result is bit-identical across engines, backends with the compiled
   fast path, pool sizes and rank counts that preserve the tile split. *)
let reduce_tag = 0x7ed0

let reduce t ~op =
  let reducers =
    match t.reducers with
    | Some rs -> rs
    | None ->
        let rs =
          Array.map
            (fun rt ->
              Msc_exec.Reduction.create ~config:t.rank_config ~trace:t.trace
                ~tasks:(Runtime.tiles rt) (Runtime.current rt))
            t.runtimes
        in
        t.reducers <- Some rs;
        rs
  in
  let partials =
    Array.mapi
      (fun rank rt ->
        Msc_exec.Reduction.run_raw reducers.(rank) ~op (Runtime.current rt))
      t.runtimes
  in
  let combined =
    Mpi_sim.allreduce t.mpi ~tag:reduce_tag ~combine:(Reduce.combine op)
      partials
  in
  Reduce.finalize op combined

(* The parity reference: every rank runs its whole step (every stage, for
   a graph), then the freshly produced state is exchanged — no compute
   hides the messages. For a graph, that one deep (merged) exchange of the
   new source state refreshes the halos every stage of the next step
   reads. *)
let bulk_step t =
  Array.iter Runtime.step t.runtimes;
  exchange_state t ~dt:1

(* The overlapped step re-splits the exchange around the interior sub-sweep.
   The state entering the step (dt = 1) already has consistent halos from
   the previous step's phase C (or from [create]'s initial exchanges), and
   re-exchanging it moves bit-identical data: packing reads interior slabs,
   which no phase mutates. Interior cells of stage 0 read no halo data at
   all, so phase B's sub-sweep is correct regardless of message progress;
   the boundary shell waits for the completed exchange in phase C. So do
   a graph's later stages: every one reads an intermediate buffer stage 0
   is still producing, and stage 0's ghost-extension boxes (which land in
   the shell by construction) read the in-flight halo.

   Three pool dispatches with barriers between them keep the protocol
   deadlock-free even when the pool has fewer workers than ranks: every
   send is posted before any rank blocks in [Mpi_sim.wait]. Posting is its
   own (cheap) phase rather than a prologue of each rank's compute so that
   all messages enter flight before any interior sweep starts — the full
   sweep then counts against every message's latency, even when the pool's
   workers time-slice a single core. *)
let overlapped_step t =
  let n = Array.length t.runtimes in
  (* Phase A: pack and post every rank's sends. *)
  Msc_util.Domain_pool.parallel_chunks t.pool ~lo:0 ~hi:n
    (fun ~worker:_ rank ->
      Halo.post ~trace:t.trace t.halo_plans.(rank)
        [| Runtime.state t.runtimes.(rank) ~dt:1 |]);
  (* Phase B: hide stage 0's interior sub-sweep behind the in-flight
     messages. *)
  Msc_util.Domain_pool.parallel_chunks t.pool ~lo:0 ~hi:n
    (fun ~worker:_ rank ->
      let rt = t.runtimes.(rank) in
      let interior, _ = t.phases.(rank) in
      let ts = Msc_trace.begin_span t.trace in
      Runtime.sweep_graph_stage rt 0 interior;
      Msc_trace.end_span ~tid:rank t.trace "halo.overlap" ts);
  (* Phase C: complete the receives, refresh the physical faces, sweep
     stage 0's boundary shell and then every later stage, commit the
     step. *)
  Msc_util.Domain_pool.parallel_chunks t.pool ~lo:0 ~hi:n
    (fun ~worker:_ rank ->
      let rt = t.runtimes.(rank) in
      let grid = Runtime.state rt ~dt:1 in
      Halo.complete ~trace:t.trace t.halo_plans.(rank) [| grid |];
      refresh_physical t ~rank grid;
      let _, shell = t.phases.(rank) in
      let ts = Msc_trace.begin_span t.trace in
      Runtime.sweep_graph_stage rt 0 shell;
      for i = 1 to Runtime.graph_stage_count rt - 1 do
        Runtime.sweep_graph_stage rt i (Runtime.graph_stage_tasks rt i)
      done;
      Msc_trace.end_span ~tid:rank t.trace "halo.shell" ts;
      Runtime.finish_step rt)

(* One timestep of the communication-avoiding temporal engine. A depth-k
   block pays one deep exchange ([k * radius]-wide slabs of every retained
   state, one message per neighbour) and then advances k substeps: substep
   [s] sweeps the interior grown by [(k-1-s) * radius] into the exchanged
   halo ({!Plan.temporal}), so the redundant ghost compute replaces k-1
   exchanges — the alpha cost per step drops to alpha/k.

   Every substep is an exact full timestep over the rank's own interior
   (only the halo extension shrinks), so the engine stays one-timestep
   granular: stopping mid-block is correct, and each substep's result is
   bit-identical to the other engines'.

   The first substep mirrors [overlapped_step]: pre-block halos are stale
   (the previous block's last substep swept no extension), so only the
   radius-deep core runs while the deep exchange is in flight; the shell
   plus the outermost extension wait for completion. Later substeps are
   pure compute. Between substeps the boundary condition refreshes the
   {e physical} faces only — a full pass would clobber the freshly
   recomputed halo extensions ([Runtime.finish_step ~low ~high]). *)
let temporal_step t =
  let periodic = Bc.equal t.bc Bc.Periodic in
  let n = Array.length t.runtimes in
  let s = t.block_pos in
  let w = Stencil.time_window t.stencil in
  let states rank =
    Array.init w (fun i -> Runtime.state t.runtimes.(rank) ~dt:(i + 1))
  in
  let finish_masked rank =
    let low, high = physical_masks t.decomp ~rank in
    if periodic then begin
      Array.fill low 0 (Array.length low) false;
      Array.fill high 0 (Array.length high) false
    end;
    Runtime.finish_step ~low ~high t.runtimes.(rank)
  in
  if s = 0 then begin
    (* Phase A: pack and post the deep sends (every retained state's
       [k * radius] slab in one message per neighbour). *)
    Msc_util.Domain_pool.parallel_chunks t.pool ~lo:0 ~hi:n
      (fun ~worker:_ rank ->
        Halo.post ~trace:t.trace t.halo_plans.(rank) (states rank));
    (* Phase B: hide the halo-free core of substep 0 behind the exchange. *)
    Msc_util.Domain_pool.parallel_chunks t.pool ~lo:0 ~hi:n
      (fun ~worker:_ rank ->
        let rt = t.runtimes.(rank) in
        let interior, _ = t.phases.(rank) in
        let ts = Msc_trace.begin_span t.trace in
        Runtime.sweep_tasks rt interior;
        Msc_trace.end_span ~tid:rank t.trace "halo.overlap" ts);
    (* Phase C: complete the deep receives, refresh physical faces of every
       input state, sweep the shell and the outermost extension, commit. *)
    Msc_util.Domain_pool.parallel_chunks t.pool ~lo:0 ~hi:n
      (fun ~worker:_ rank ->
        let rt = t.runtimes.(rank) in
        let grids = states rank in
        Halo.complete ~trace:t.trace t.halo_plans.(rank) grids;
        Array.iter (refresh_physical t ~rank) grids;
        let _, shell = t.phases.(rank) in
        let ts = Msc_trace.begin_span t.trace in
        Runtime.sweep_tasks rt shell;
        Msc_trace.end_span ~tid:rank t.trace "halo.shell" ts;
        finish_masked rank)
  end
  else
    (* Substeps 1..k-1: no communication — sweep the shrunken extended
       interior ({!Plan.temporal}) and refresh the physical faces. *)
    Msc_util.Domain_pool.parallel_chunks t.pool ~lo:0 ~hi:n
      (fun ~worker:_ rank ->
        let rt = t.runtimes.(rank) in
        let ts = Msc_trace.begin_span t.trace in
        Runtime.sweep_tasks rt t.sub_tasks.(rank).(s);
        Msc_trace.end_span ~tid:rank t.trace "halo.substep" ts;
        finish_masked rank);
  t.block_pos <- (s + 1) mod t.depth

(* Graphs record [Temporal_blocked] (depth 1 at most — deeper requests
   are rejected at creation) as [Bulk_synchronous] in [effective_engine]:
   a depth-k block would need k recomputable source steps, but
   intermediates are recomputed per step, not stepped. *)
let step t =
  (match t.effective_engine with
  | Bulk_synchronous -> bulk_step t
  | Overlapped -> overlapped_step t
  | Temporal_blocked _ -> temporal_step t);
  t.steps_done <- t.steps_done + 1

let run t n =
  for _ = 1 to n do
    step t
  done

let rank_state t ~rank = Runtime.current t.runtimes.(rank)

let gather t =
  let grid = t.stencil.Stencil.grid in
  let out = Grid.create ~shape:grid.Tensor.shape ~halo:grid.Tensor.halo in
  Array.iteri
    (fun rank rt ->
      let local = Runtime.current rt in
      let offset = t.offsets.(rank) in
      Grid.iter_interior local (fun coord ->
          let global_coord = Array.mapi (fun d c -> c + offset.(d)) coord in
          Grid.set out global_coord (Grid.get local coord)))
    t.runtimes;
  out

let validate ?config ?(steps = 3) ?bc ~ranks_shape (st : Stencil.t) =
  let dist = create ?config ?bc ~ranks_shape st in
  let single = Runtime.create ?config ?bc st in
  run dist steps;
  Runtime.run single steps;
  Grid.max_rel_error ~reference:(Runtime.current single) (gather dist)

let validate_graph ?config ?(steps = 3) ?bc ~ranks_shape (g : G.t) =
  let dist = create_graph ?config ?bc ~ranks_shape g in
  let single = Runtime.create_graph ?config ?bc g in
  run dist steps;
  Runtime.run single steps;
  Grid.max_rel_error ~reference:(Runtime.current single) (gather dist)
