open Msc_ir
module Grid = Msc_exec.Grid
module Runtime = Msc_exec.Runtime
module Bc = Msc_exec.Bc
module Plan = Msc_schedule.Plan
module Schedule = Msc_schedule.Schedule
module Exec = Msc_exec.Exec
module G = Msc_graph.Graph

type t = {
  global : Tensor.t;  (** the decomposed (stepped) tensor: {!gather}'s geometry *)
  time_window : int;  (** retained past states, all exchanged by {!initial_exchange} *)
  decomp : Decomp.t;
  mpi : Mpi_sim.t;
  runtimes : Runtime.t array;
  offsets : int array array;
  rank_config : Exec.Config.t;
      (** each rank's local config (sequential pool) — reduction executors
          reuse its backend *)
  mutable reducers : Msc_exec.Reduction.t array option;
      (** per-rank reduction executors over the rank state geometry,
          built lazily on the first {!reduce} *)
  depth : int;  (** effective temporal-block depth *)
  pool : Msc_util.Domain_pool.t;
      (** dispatches ranks, not tiles: worker [w] steps the [w]-th
          contiguous block of ranks ({!Msc_util.Domain_pool.parallel_ranges}) *)
  halo_plans : Halo.plan array;  (** per rank, compiled at creation *)
  bc_plans : Bc.plan option array;
      (** per rank: the physical-face refresh (empty when periodic: the
          wrapped exchange owns every face), as the option
          [Runtime.finish_step] takes, built once *)
  wire : Grid.t array array;
      (** per rank: the states one exchange sends, refilled in place each
          step (the window rotates) *)
  cross_worker_messages : int;
      (** messages per exchange whose sender and receiver ranks belong to
          different pool workers *)
  partials : float array;  (** per rank: {!reduce}'s tile-combined partial *)
  phases : ((int array * int array) array * (int array * int array) array) array;
      (** per rank: (interior tasks, boundary-shell tasks) — the
          first-substep tasks split against the cells at least the
          stencil's reach from every face (only those read pre-exchange
          halo data) *)
  deferred : bool array;
      (** per rank: its halo had not fully arrived when its worker first
          reached it this exchange, so it takes the interior/shell split *)
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

let refresh_bc t rank g =
  match t.bc_plans.(rank) with Some plan -> Bc.run plan g | None -> ()

(* Point every rank's wire at its [dt = 1 .. Array.length wire] states. *)
let fill_wire t rank =
  let w = t.wire.(rank) in
  for i = 0 to Array.length w - 1 do
    w.(i) <- Runtime.state t.runtimes.(rank) ~dt:(i + 1)
  done

(* The create-time halo fill: one exchange per retained state, driven
   from the calling domain with no compute in flight, each under a
   ["halo.window"] span covering pack, transfer and unpack for every rank
   and direction. The physical faces are refreshed after the exchange, so
   reflect corners read freshly exchanged edge data. *)
let initial_exchange t =
  let n = Array.length t.runtimes in
  for dt = 1 to t.time_window do
    let ts_win = Msc_trace.begin_span t.trace in
    let grids = Array.map (fun rt -> [| Runtime.state rt ~dt |]) t.runtimes in
    for rank = 0 to n - 1 do
      Halo.post t.halo_plans.(rank) grids.(rank)
    done;
    for rank = 0 to n - 1 do
      Halo.complete t.halo_plans.(rank) grids.(rank);
      refresh_bc t rank grids.(rank).(0)
    done;
    Msc_trace.end_span t.trace "halo.window" ts_win
  done

(* The rank builder both constructors share. The constructor resolves
   the per-step exchange width [halo], whether the exchange needs
   [corners], and the [radius] the interior/shell split and the temporal
   substeps run against. [rank ~depth ~extent] compiles one rank extent's
   plan and returns the constructor of a rank runtime over it; it runs once
   per distinct extent (uneven decompositions produce at most a handful),
   so equal-extent ranks share one compiled plan. *)
let build ~config ~net ~init ~aux_init ~bc ~trace ~ranks_shape
    ~(global : Tensor.t) ~time_window ~halo ~radius ~corners ~rank =
  (* The pool dispatches ranks; inside a rank the runtime sweeps its tiles
     sequentially (nested parallelism would oversubscribe), so each rank's
     config keeps the backend but drops to the sequential pool. *)
  let rank_config =
    { config with Exec.Config.pool = Msc_util.Domain_pool.sequential }
  in
  let decomp = Decomp.create ~global:global.Tensor.shape ~ranks_shape in
  let nranks = decomp.Decomp.nranks in
  let requested_depth = config.Exec.Config.depth in
  if requested_depth < 1 then
    invalid_arg
      (Printf.sprintf "Distributed: temporal block depth %d must be >= 1"
         requested_depth);
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
  let halo_plans =
    Array.mapi
      (fun rank rt ->
        Halo.plan ~periodic ~trace mpi decomp ~rank ~grid:(geometry rt) ~width
          ~faces_only)
      runtimes
  in
  let pool = config.Exec.Config.pool in
  (* A worker's block of ranks is contiguous in row-major rank order, so
     most neighbours share a worker: at 8x8 ranks on 2 workers, 44 of an
     exchange's 420 messages cross. *)
  let owner = Array.make nranks 0 in
  for w = 0 to Msc_util.Domain_pool.size pool - 1 do
    let start = Msc_util.Domain_pool.range_start pool ~lo:0 ~hi:nranks in
    Array.fill owner (start w) (start (w + 1) - start w) w
  done;
  let cross_worker_messages =
    let n = ref 0 in
    Array.iteri
      (fun rank p ->
        Array.iter (fun peer -> if owner.(peer) <> owner.(rank) then incr n) (Halo.peers p))
      halo_plans;
    !n
  in
  let on_wire = if depth = 1 then 1 else time_window in
  let t =
    {
      global;
      time_window;
      decomp;
      mpi;
      runtimes;
      offsets = Array.map fst subdomains;
      rank_config;
      reducers = None;
      depth;
      pool;
      halo_plans;
      bc_plans =
        Array.mapi
          (fun rank rt ->
            let low, high = physical rank in
            Some (Bc.compile ~low ~high bc (geometry rt)))
          runtimes;
      wire = Array.map (fun rt -> Array.make on_wire (geometry rt)) runtimes;
      cross_worker_messages;
      partials = Array.make nranks 0.0;
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
      deferred = Array.make nranks false;
      block_pos = 0;
      trace;
      steps_done = 0;
    }
  in
  (* Every retained past state needs consistent halos before the first
     step. *)
  initial_exchange t;
  t

let create ?(config = Exec.Config.default) ?net ?(schedule = Schedule.empty)
    ?(init = fun coord -> Runtime.default_init 1 coord)
    ?(aux_init = Runtime.default_aux_init) ?(bc = Bc.Dirichlet 0.0)
    ?(trace = Msc_trace.disabled) ~ranks_shape (st : Stencil.t) =
  Stencil.validate_halo st;
  let grid = st.Stencil.grid in
  let radius = Stencil.radius st in
  build ~config ~net ~init ~aux_init ~bc ~trace ~ranks_shape ~global:grid
    ~time_window:(Stencil.time_window st) ~halo:radius ~radius ~corners:(needs_corners st)
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
   deep halo, exactly like a deep temporal block's ghost zones. *)

let create_graph ?(config = Exec.Config.default) ?net
    ?(schedule = Schedule.empty)
    ?(init = fun coord -> Runtime.default_init 1 coord)
    ?(aux_init = Runtime.default_aux_init) ?(bc = Bc.Dirichlet 0.0)
    ?(trace = Msc_trace.disabled) ~ranks_shape (graph : G.t) =
  (* Graphs have no temporal block to deepen: intermediates are recomputed
     per step, not stepped, so a depth > 1 request cannot be honored and
     raises. *)
  let depth = config.Exec.Config.depth in
  if depth > 1 then
    invalid_arg
      (Printf.sprintf
         "Distributed.create_graph: temporal block depth %d cannot be \
          honored for pipeline graphs (intermediates are recomputed per \
          step, not stepped — there is no block to deepen); use depth 1"
         depth);
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
    ~global:graph.G.source ~time_window:(G.time_window graph)
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
let effective_depth t = t.depth
let steps_done t = t.steps_done

let rank_runtime t ~rank =
  if rank < 0 || rank >= Array.length t.runtimes then
    invalid_arg
      (Printf.sprintf "Distributed.rank_runtime: rank %d out of [0,%d)" rank
         (Array.length t.runtimes));
  t.runtimes.(rank)

(* Every rank-parallel phase is one pool region over contiguous rank
   blocks: [body lo hi] runs on the worker that owns ranks [lo, hi) for
   the whole run. *)
let rank_blocks t body =
  Msc_util.Domain_pool.parallel_ranges t.pool ~lo:0 ~hi:(Array.length t.runtimes) body

(* Collective reduction over the newest distributed state: per-rank tile
   partials (the rank's own plan tiling, same backend as its sweeps, each
   rank on its own worker) combined locally in tree order, rank partials
   allreduced through the mailbox, one finalize at the end. Every fold is
   index-ordered, so the result is bit-identical across depths, backends
   with the compiled fast path, pool sizes and rank counts that preserve
   the tile split. *)
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
  rank_blocks t (fun lo hi ->
      for rank = lo to hi - 1 do
        t.partials.(rank) <-
          Msc_exec.Reduction.run_raw reducers.(rank) ~op (Runtime.current t.runtimes.(rank))
      done);
  let combined =
    Mpi_sim.allreduce t.mpi ~tag:reduce_tag ~op t.partials
  in
  Reduce.finalize op combined

(* Commit one rank's block substep, refreshing its physical faces only. *)
let finish_substep t rank =
  Runtime.finish_step ?refresh:t.bc_plans.(rank) t.runtimes.(rank)

(* The overlap protocol: the first substep of every block. At depth 1 the
   older states' halos are still valid from the previous step's exchange,
   so only the newest state goes on the wire; a deeper block sends every
   retained state. Interior cells read no halo data at all (for a graph,
   not even through the producers each task computes over its
   ghost-extended range), so an interior sub-sweep is correct regardless
   of message progress; the boundary shell waits for the completed
   exchange.

   One pool region per step, in which each worker runs three passes over
   its contiguous block of ranks:
   1. post the sends of every rank;
   2. ready first: a rank whose messages have all arrived
      ({!Halo.try_complete}) is unpacked, has its physical faces refreshed
      and its whole first-substep task array swept in one call, and is
      committed; any other rank is marked deferred;
   3. only the deferred ranks run the split: all their interiors, then
      complete, refresh, shell sweep and commit for each.
   A worker owns many ranks, so by the time it reaches one, that rank's
   messages have usually arrived and the split would hide nothing while
   costing a sweep of five pieces instead of one and two more passes over
   the rank grids. Which path a rank takes depends only on message
   arrival, and both give the same bits.

   No rank waits on a message its own worker has still to post, and every
   other worker posts before it waits, so the protocol is deadlock-free
   for any pool size. One region costs one wake-up and one barrier per
   step, and the contiguous rank blocks keep most neighbour traffic on one
   core.

   With no barrier between posting and completing, a worker can reach a
   wait before a peer worker has even woken to post: that receive polls
   as for a missing message (naps of 0.2 to 2 ms). A peer descheduled for
   longer than the mailbox's 1 s default (a pool oversubscribing its
   cores) is not a deadlock, so these waits get [region_timeout_s]. *)
let region_timeout_s = 30.0

let refresh_wire t rank =
  let wire = t.wire.(rank) in
  for i = 0 to Array.length wire - 1 do
    refresh_bc t rank wire.(i)
  done

let overlap t =
  rank_blocks t (fun lo hi ->
      for rank = lo to hi - 1 do
        fill_wire t rank;
        Halo.post t.halo_plans.(rank) t.wire.(rank)
      done;
      for rank = lo to hi - 1 do
        let ready = Halo.try_complete t.halo_plans.(rank) t.wire.(rank) in
        t.deferred.(rank) <- not ready;
        if ready then begin
          refresh_wire t rank;
          Runtime.sweep_tasks t.runtimes.(rank) t.sub_tasks.(rank).(0);
          finish_substep t rank
        end
      done;
      for rank = lo to hi - 1 do
        if t.deferred.(rank) then begin
          let interior, _ = t.phases.(rank) in
          let ts = Msc_trace.begin_span t.trace in
          Runtime.sweep_tasks t.runtimes.(rank) interior;
          Msc_trace.end_span_on ~tid:rank t.trace "halo.overlap" ts
        end
      done;
      for rank = lo to hi - 1 do
        if t.deferred.(rank) then begin
          Halo.complete ~timeout_s:region_timeout_s t.halo_plans.(rank) t.wire.(rank);
          refresh_wire t rank;
          let _, shell = t.phases.(rank) in
          let ts = Msc_trace.begin_span t.trace in
          Runtime.sweep_tasks t.runtimes.(rank) shell;
          Msc_trace.end_span_on ~tid:rank t.trace "halo.shell" ts;
          finish_substep t rank
        end
      done);
  if Msc_trace.enabled t.trace then begin
    Msc_trace.add_on ~tid:0 t.trace "dist.cross_worker_messages"
      (float_of_int t.cross_worker_messages);
    let split = ref 0 in
    Array.iter (fun d -> if d then incr split) t.deferred;
    Msc_trace.add_on ~tid:0 t.trace "dist.overlapped_ranks" (float_of_int !split)
  end

(* One timestep of a block. A depth-1 block exchanges every step; a depth-k
   block pays one deep exchange ([k * radius]-wide slabs of every retained
   state, one message per neighbour) and then advances k substeps: substep
   [s] sweeps the interior grown by [(k-1-s) * radius] into the exchanged
   halo ({!Plan.temporal}), so the redundant ghost compute replaces k-1
   exchanges — the alpha cost per step drops to alpha/k.

   Every substep is an exact full timestep over the rank's own interior
   (only the halo extension shrinks), so stepping stays one-timestep
   granular: stopping mid-block is correct, and each substep's result is
   bit-identical to the single grid's.

   The first substep runs the overlap protocol: pre-block halos are stale
   (the previous block's last substep swept no extension), so a rank whose
   deep exchange has already arrived sweeps the substep whole, and any
   other runs only the radius-deep core while its exchange is in flight;
   its shell plus the outermost extension wait for completion. Later substeps are
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
    rank_blocks t (fun lo hi ->
        for rank = lo to hi - 1 do
          let ts = Msc_trace.begin_span t.trace in
          Runtime.sweep_tasks t.runtimes.(rank) t.sub_tasks.(rank).(s);
          Msc_trace.end_span_on ~tid:rank t.trace "halo.substep" ts;
          finish_substep t rank
        done);
  t.block_pos <- (s + 1) mod t.depth

let step t =
  block_step t;
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
