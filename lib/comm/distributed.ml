open Msc_ir
module Grid = Msc_exec.Grid
module Runtime = Msc_exec.Runtime
module Bc = Msc_exec.Bc
module Plan = Msc_schedule.Plan
module Schedule = Msc_schedule.Schedule
module Exec = Msc_exec.Exec
module G = Msc_graph.Graph

type engine = Exec.engine =
  | Bulk_synchronous
  | Overlapped
  | Temporal_blocked of { depth : int }

type t = {
  global : Tensor.t;  (** the decomposed (stepped) tensor: {!gather}'s geometry *)
  time_window : int;  (** retained past states, all exchanged by {!refresh_halos} *)
  decomp : Decomp.t;
  mpi : Mpi_sim.t;
  runtimes : Runtime.t array;
  offsets : int array array;
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
  bc_plans : Bc.plan array;
      (** per rank: the physical-face refresh (empty when periodic: the
          wrapped exchange owns every face) *)
  phases : ((int array * int array) array * (int array * int array) array) array;
      (** per rank: (interior tasks, boundary-shell tasks) — the
          first-substep tasks split against the cells at least the
          stencil's reach from every face (only those read pre-exchange
          halo data) *)
  sub_tasks : (int array * int array) array array array;
      (** per rank, per substep: the temporal block's shrinking task
          arrays ({!Plan.temporal}); one plain substep at depth 1 *)
  mutable block_pos : int;  (** substep position within the current block *)
  trace : Msc_trace.t;
  mutable steps_done : int;
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
  Array.iteri (fun rank g -> Bc.run t.bc_plans.(rank) g.(0)) grids;
  Msc_trace.end_span t.trace "halo.window" ts_win

let refresh_halos t =
  for dt = 1 to t.time_window do
    exchange_state t ~dt
  done

(* The rank builder both constructors share. The constructor resolves
   [protocol] (the engine that will step, before the depth clamp), the
   per-step exchange width [halo], whether the exchange needs [corners],
   and the [radius] the interior/shell split and the temporal substeps run
   against. [rank ~depth ~extent] compiles one rank extent's
   plan and returns the constructor of a rank runtime over it; it runs once
   per distinct extent (uneven decompositions produce at most a handful),
   so equal-extent ranks share one compiled plan. *)
let build ~config ~net ~init ~aux_init ~bc ~trace ~ranks_shape
    ~(global : Tensor.t) ~time_window ~protocol ~halo ~radius ~corners ~rank =
  (* The pool dispatches ranks; inside a rank the runtime sweeps its tiles
     sequentially (nested parallelism would oversubscribe), so each rank's
     config keeps the backend but drops to the sequential pool. *)
  let rank_config =
    { config with Exec.Config.pool = Msc_util.Domain_pool.sequential }
  in
  let decomp = Decomp.create ~global:global.Tensor.shape ~ranks_shape in
  let nranks = decomp.Decomp.nranks in
  let requested_depth =
    match protocol with
    | Temporal_blocked { depth } ->
        if depth < 1 then
          invalid_arg "Distributed: temporal block depth must be >= 1";
        depth
    | Bulk_synchronous | Overlapped -> 1
  in
  (* Clamp the block depth to what the thinnest rank supports: a depth-k
     block needs a [k * halo] halo no wider than the rank itself. *)
  let depth = min requested_depth (Decomp.max_uniform_depth decomp ~radius:halo) in
  if depth > 1 && Bc.equal bc Bc.Reflect then
    invalid_arg
      "Distributed: Reflect boundaries are unsupported at temporal \
       block depth > 1 (the mirrored halo cannot be recomputed locally)";
  let width = Array.map (fun h -> depth * h) halo in
  (* Extension cells of a star stencil still read into corner halo regions
     (their own reads bleed diagonally), so depth > 1 always exchanges
     corners. *)
  let faces_only = (depth = 1) && not corners in
  let subdomains = Array.init nranks (fun rank -> Decomp.subdomain decomp ~rank) in
  (* Every rank must be at least one exchange width wide, or its slabs
     would read past the donor's interior. *)
  Array.iteri
    (fun rank (_, extent) ->
      Array.iteri
        (fun d w ->
          if extent.(d) < w then
            invalid_arg
              (Printf.sprintf
                 "Distributed: rank %d extent %d < exchange width %d in \
                  dimension %d (coarsen the decomposition)"
                 rank extent.(d) w d))
        width)
    subdomains;
  let mpi = Mpi_sim.create ?net ~nranks () in
  let rank_ctors = ref [] in
  let rank_ctor extent =
    match List.assoc_opt extent !rank_ctors with
    | Some c -> c
    | None ->
        let c = rank ~depth ~extent in
        rank_ctors := (extent, c) :: !rank_ctors;
        c
  in
  (* [init] and [aux_init] are global closed forms: each rank fills its
     slab (halo included) at its offset, so coefficient grids need no
     exchange and are bit-identical to the single-grid run. The local
     runtime's own BC pass runs on every face; the initial exchange plus
     the physical-face refresh below overwrite the interior faces. *)
  let runtimes =
    Array.mapi
      (fun tid (offset, extent) ->
        let global_coord coord = Array.mapi (fun d c -> c + offset.(d)) coord in
        rank_ctor extent ~config:rank_config
          ~init:(fun _dt coord -> init (global_coord coord))
          ~aux_init:(fun name coord -> aux_init name (global_coord coord))
          ~tid)
      subdomains
  in
  (* Which of a rank's faces sit on the physical boundary (none when the
     domain is periodic: the wrapped exchange owns every face). *)
  let periodic = Bc.equal bc Bc.Periodic in
  let physical rank =
    let coords = Decomp.coords_of_rank decomp rank in
    ( Array.map (fun c -> (not periodic) && c = 0) coords,
      Array.mapi (fun d c -> (not periodic) && c = ranks_shape.(d) - 1) coords )
  in
  let geometry rt = Runtime.state rt ~dt:1 in
  (* The temporal block's per-substep task arrays: the halo
     extension only grows on faces with a neighbour (physical faces are fed
     by the boundary condition instead). *)
  let sub_tasks =
    Array.mapi
      (fun rank rt ->
        let low, high = physical rank in
        Plan.temporal ~shape:(snd subdomains.(rank)) ~radius ~depth
          ~grow_low:(Array.map not low) ~grow_high:(Array.map not high)
          (Runtime.tiles rt))
      runtimes
  in
  let t =
    {
      global;
      time_window;
      decomp;
      mpi;
      runtimes;
      offsets = Array.map fst subdomains;
      engine = config.Exec.Config.engine;
      effective_engine =
        (match protocol with
        | Temporal_blocked _ -> Temporal_blocked { depth }
        | (Bulk_synchronous | Overlapped) as e -> e);
      rank_config;
      reducers = None;
      depth;
      pool = config.Exec.Config.pool;
      halo_plans =
        Array.mapi
          (fun rank rt ->
            Halo.plan ~periodic mpi decomp ~rank ~grid:(geometry rt) ~width
              ~faces_only)
          runtimes;
      bc_plans =
        Array.mapi
          (fun rank rt ->
            let low, high = physical rank in
            Bc.compile ~low ~high bc (geometry rt))
          runtimes;
      (* Split the first substep's tasks against the rank's halo-free core:
         cells at least the stage radius from every local face read no halo
         data, so only these may run while the exchange is in flight (a
         temporal block's pre-block halo is stale too: the previous block's
         last substep swept no extension). Every extension box lands in the
         shell; a rank thinner than twice the radius has an empty interior. *)
      phases =
        Array.mapi
          (fun rank subs ->
            let _, extent = subdomains.(rank) in
            Plan.split_tasks ~core_lo:radius
              ~core_hi:(Array.mapi (fun d n -> max radius.(d) (n - radius.(d))) extent)
              subs.(0))
          sub_tasks;
      sub_tasks;
      block_pos = 0;
      trace;
      steps_done = 0;
    }
  in
  (* Every retained past state needs consistent halos before the first
     step. *)
  refresh_halos t;
  t

let create ?(config = Exec.Config.default) ?net ?(schedule = Schedule.empty)
    ?(init = fun coord -> Runtime.default_init 1 coord)
    ?(aux_init = Runtime.default_aux_init) ?(bc = Bc.Dirichlet 0.0)
    ?(trace = Msc_trace.disabled) ~ranks_shape (st : Stencil.t) =
  Stencil.validate_halo st;
  let grid = st.Stencil.grid in
  let radius = Stencil.radius st in
  build ~config ~net ~init ~aux_init ~bc ~trace ~ranks_shape ~global:grid
    ~time_window:(Stencil.time_window st) ~protocol:config.Exec.Config.engine
    ~halo:radius ~radius ~corners:(needs_corners st)
    ~rank:(fun ~depth ~extent ->
      (* Deep-halo override (temporal blocking): the local grids carry a
         [depth * radius] halo so one exchange feeds a whole block. *)
      let halo =
        if depth > 1 then
          Some (Array.mapi (fun d h -> max h (depth * radius.(d))) grid.Tensor.halo)
        else None
      in
      let plan =
        match Plan.compile (Stencil.reshape ~shape:extent ?halo st) schedule with
        | Ok p -> p
        | Error msg -> invalid_arg ("Distributed.create: " ^ msg)
      in
      fun ~config ~init ~aux_init ~tid ->
        Runtime.create ~plan ~config ~init ~aux_init ~bc ~trace ~tid
          plan.Plan.stencil)

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

let create_graph ?(config = Exec.Config.default) ?net
    ?(schedule = Schedule.empty)
    ?(init = fun coord -> Runtime.default_init 1 coord)
    ?(aux_init = Runtime.default_aux_init) ?(bc = Bc.Dirichlet 0.0)
    ?(trace = Msc_trace.disabled) ~ranks_shape (graph : G.t) =
  (* Graphs have no temporal block to deepen: intermediates are recomputed
     per step, not stepped, so a depth > 1 request cannot be honored and
     raises; depth 1 (bulk-equivalent by definition) steps as, and is
     recorded as, [Bulk_synchronous]. *)
  let protocol =
    match config.Exec.Config.engine with
    | Temporal_blocked { depth } when depth > 1 ->
        invalid_arg
          (Printf.sprintf
             "Distributed.create_graph: Temporal_blocked depth %d cannot be \
              honored for pipeline graphs (intermediates are recomputed per \
              step, not stepped — there is no block to deepen); use depth 1 \
              or a non-temporal engine"
             depth)
    | Temporal_blocked { depth = 1 } -> Bulk_synchronous
    | e -> e
  in
  let multi_stage = List.length graph.G.stages > 1 in
  if multi_stage && not graph.G.merged then
    invalid_arg
      "Distributed.create_graph: multi-stage graphs need shared-halo \
       (merged) execution — run Pass.merge_halos (or raise its max_width \
       clamp so the pipeline's required halo fits)";
  (* A graph steps as one stage whose producers run inside each task, so an
     output cell reads the source as far as its deepest producer chain
     reaches: the overlapped split uses the graph's required halo (for a
     single stage, its own radius). *)
  let radius =
    if multi_stage then G.required_halo graph
    else Stencil.radius (G.output_stage graph).G.stencil
  in
  (* Extension cells of even a star stencil read diagonally into corner
     halo regions, so any multi-stage graph exchanges corners, like
     temporal blocking at depth > 1. *)
  let corners =
    multi_stage
    || List.exists (fun (s : G.stage) -> needs_corners s.G.stencil) graph.G.stages
  in
  build ~config ~net ~init ~aux_init ~bc ~trace ~ranks_shape
    ~global:graph.G.source ~time_window:(G.time_window graph) ~protocol
    ~halo:(G.required_halo graph) ~radius ~corners
    ~rank:(fun ~depth:_ ~extent ->
      let graph_plan =
        match Plan.compile_graph ~shape:extent graph schedule with
        | Ok p -> p
        | Error msg -> invalid_arg ("Distributed.create_graph: " ^ msg)
      in
      fun ~config ~init ~aux_init ~tid ->
        Runtime.create_graph ~graph_plan ~config ~init ~aux_init ~bc ~trace
          ~tid graph)

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

(* Commit one rank's block substep, refreshing its physical faces only. *)
let finish_substep t rank rt = Runtime.finish_step ~refresh:t.bc_plans.(rank) rt

(* The three-phase overlap protocol: the first substep of every block.
   At depth 1 the older states' halos are still valid from the previous
   step's exchange, so only the newest state goes on the wire; a deeper
   block sends every retained state. Interior cells read no halo data at
   all (for a graph, not even through the producers each task computes
   over its ghost-extended range), so phase B's sub-sweep is correct
   regardless of message progress; the boundary shell waits for the
   completed exchange in phase C.

   Three pool dispatches with barriers between them keep the protocol
   deadlock-free even when the pool has fewer workers than ranks: every
   send is posted before any rank blocks in [Mpi_sim.slot_wait]. Posting
   is its own (cheap) phase rather than a prologue of each rank's compute
   so that all messages enter flight before any interior sweep starts —
   the full sweep then counts against every message's latency, even when
   the pool's workers time-slice a single core. *)
let overlap t =
  let n = Array.length t.runtimes in
  let on_wire = if t.depth = 1 then 1 else t.time_window in
  let grids =
    Array.map
      (fun rt -> Array.init on_wire (fun i -> Runtime.state rt ~dt:(i + 1)))
      t.runtimes
  in
  (* Phase A: pack and post every rank's sends. *)
  Msc_util.Domain_pool.parallel_chunks t.pool ~lo:0 ~hi:n
    (fun ~worker:_ rank ->
      Halo.post ~trace:t.trace t.halo_plans.(rank) grids.(rank));
  (* Phase B: hide the interior sub-sweep behind the in-flight messages. *)
  Msc_util.Domain_pool.parallel_chunks t.pool ~lo:0 ~hi:n
    (fun ~worker:_ rank ->
      let interior, _ = t.phases.(rank) in
      let ts = Msc_trace.begin_span t.trace in
      Runtime.sweep_tasks t.runtimes.(rank) interior;
      Msc_trace.end_span ~tid:rank t.trace "halo.overlap" ts);
  (* Phase C: complete the receives, refresh the physical faces, sweep
     the boundary shell, commit the step. *)
  Msc_util.Domain_pool.parallel_chunks t.pool ~lo:0 ~hi:n
    (fun ~worker:_ rank ->
      let rt = t.runtimes.(rank) in
      Halo.complete ~trace:t.trace t.halo_plans.(rank) grids.(rank);
      Array.iter (Bc.run t.bc_plans.(rank)) grids.(rank);
      let _, shell = t.phases.(rank) in
      let ts = Msc_trace.begin_span t.trace in
      Runtime.sweep_tasks rt shell;
      Msc_trace.end_span ~tid:rank t.trace "halo.shell" ts;
      finish_substep t rank rt)

(* One timestep of a block: the [Overlapped] engine is the depth-1 block,
   [Temporal_blocked] the communication-avoiding depth-k one. A depth-k
   block pays one deep exchange ([k * radius]-wide slabs of every retained
   state, one message per neighbour) and then advances k substeps: substep
   [s] sweeps the interior grown by [(k-1-s) * radius] into the exchanged
   halo ({!Plan.temporal}), so the redundant ghost compute replaces k-1
   exchanges — the alpha cost per step drops to alpha/k.

   Every substep is an exact full timestep over the rank's own interior
   (only the halo extension shrinks), so the engine stays one-timestep
   granular: stopping mid-block is correct, and each substep's result is
   bit-identical to the other engines'.

   The first substep runs the overlap protocol: pre-block halos are stale
   (the previous block's last substep swept no extension), so only the
   radius-deep core runs while the deep exchange is in flight; the shell
   plus the outermost extension wait for completion. Later substeps are
   pure compute. Every substep refreshes the {e physical} faces only — a
   full pass would clobber the freshly recomputed halo extensions. At depth 1
   there are none, and a full pass would write the neighbour faces of the
   new state, which the next step's exchange overwrites before any sweep
   reads them: the same bits either way. *)
let block_step t =
  let s = t.block_pos in
  if s = 0 then overlap t
  else
    (* Substeps 1..k-1: no communication — sweep the shrunken extended
       interior ({!Plan.temporal}) and refresh the physical faces. *)
    Msc_util.Domain_pool.parallel_chunks t.pool ~lo:0
      ~hi:(Array.length t.runtimes) (fun ~worker:_ rank ->
        let rt = t.runtimes.(rank) in
        let ts = Msc_trace.begin_span t.trace in
        Runtime.sweep_tasks rt t.sub_tasks.(rank).(s);
        Msc_trace.end_span ~tid:rank t.trace "halo.substep" ts;
        finish_substep t rank rt);
  t.block_pos <- (s + 1) mod t.depth

(* Graphs record [Temporal_blocked] (depth 1 at most — deeper requests
   are rejected at creation) as [Bulk_synchronous] in [effective_engine]:
   a depth-k block would need k recomputable source steps, but
   intermediates are recomputed per step, not stepped. *)
let step t =
  (match t.effective_engine with
  | Bulk_synchronous -> bulk_step t
  | Overlapped | Temporal_blocked _ -> block_step t);
  t.steps_done <- t.steps_done + 1

let run t n =
  for _ = 1 to n do
    step t
  done

let rank_state t ~rank = Runtime.current t.runtimes.(rank)

let gather t =
  let out = Grid.of_tensor t.global in
  Array.iteri
    (fun rank rt ->
      let local = Runtime.current rt in
      let offset = t.offsets.(rank) in
      Grid.iter_interior local (fun coord ->
          let global_coord = Array.mapi (fun d c -> c + offset.(d)) coord in
          Grid.set out global_coord (Grid.get local coord)))
    t.runtimes;
  out

(* The distributed run against its single-grid twin, both stepped [steps]
   times. *)
let against_single ~steps dist single =
  run dist steps;
  Runtime.run single steps;
  Grid.max_rel_error ~reference:(Runtime.current single) (gather dist)

let validate ?config ?(steps = 3) ?bc ~ranks_shape st =
  against_single ~steps (create ?config ?bc ~ranks_shape st)
    (Runtime.create ?config ?bc st)

let validate_graph ?config ?(steps = 3) ?bc ~ranks_shape g =
  against_single ~steps (create_graph ?config ?bc ~ranks_shape g)
    (Runtime.create_graph ?config ?bc g)
