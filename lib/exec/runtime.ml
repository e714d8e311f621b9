open Msc_ir
module Schedule = Msc_schedule.Schedule
module Plan = Msc_schedule.Plan
module G = Msc_graph.Graph

(* A runtime steps one source grid through a sliding window of W+1
   states: each step sweeps the output stage's tasks into the window's
   spare slot, and the window rotates. A single stencil is the graph whose
   only stage is the output. A graph's other stages (the producers
   [Pass.fuse] did not inline) run tile-local: for every task, each
   producer is swept in topological order over the task's ghost-extended
   range into a per-worker window, then the output stage sweeps the task,
   reading those windows. A window is a slab of the padded geometry along
   dimension 0 (same strides, only the rows the extended range touches);
   a task whose windows would exceed [window_budget] is cut along
   dimension 0 into sub-slabs. No intermediate grid is allocated, and
   every point is computed by the same per-point fold as a
   stage-at-a-time sweep.

   Where a term's input grid comes from: a past state of the stepped
   source, or a producer's window (always the current step: producers are
   recomputed per task, never stepped). *)
type source = Past of int | Window of int

type term = {
  src : source;
  kernel : Interp.t option;
      (* a kernel term's compiled checks; [None] = identity (State) term *)
}

(* Where an aux tensor comes from: a static coefficient grid, the newest
   source state (bound per sweep: the window rotates), or a producer's
   window. *)
type aux_src = Static of Grid.t | Source | Aux_window of int

type stage = {
  terms : term list;
  aux : (string * aux_src) list;  (* every aux tensor the kernels read *)
  aux_slot_srcs : aux_src array;  (* per aux slot of [sweep] *)
  dst : int option;  (* the producer's window slot; [None]: the output slot *)
  ext : int array;  (* ghost-zone extension of the stage's range around a task *)
  grown : bool;  (* [ext] is not all zero *)
  sweep : Backend.sweep_fn;
      (* the whole-sweep kernel, JIT-compiled or interpreted: every term
         folded into one write-through call per range *)
  windowed : bool;  (* reads or writes a window *)
  srcs : float array array;
  aux_slots : float array array;
      (* the sweep's arrays, past states and the source aux refreshed per
         dispatch (the state window rotates); a windowed stage substitutes
         the sweeping worker's windows per call *)
}

type backend_report = {
  requested : Backend.t;
  effective : Backend.t;
  kernel_terms : int;
  compiled_terms : int;
  fused_sweeps : int;
  tile_dispatches : int;
  pool_inline_cutoff : int;
  inline_dispatches : int;
  fallback : string option;
}

(* Pool dispatch of a tiny sweep costs more than the sweep itself: waking
   the workers and the end-of-region barrier take microseconds while a few
   thousand points sweep in less — the BENCH_runtime regression that had
   [fused_c_pool] at 0.25-0.88x of [fused_c] across the whole suite. Below
   this many total points, a parallel-scheduled task array runs inline on
   the calling domain instead. *)
let pool_inline_cutoff = 32768

(* Per-worker bytes of a graph task's producer windows. Past it the task is
   cut along dimension 0 into sub-slabs whose windows fit, so producer
   rows are still in L2 when the consumer reads them; each cut recomputes
   the producers' extension rows. On a 2-vCPU Xeon (2 MB L2 per core),
   unsharp_mask's default plan at 4096^2 (2 workers, 64x4096 tasks, blur1
   tile-local, best of 7, three alternating rounds) stepped in 26.7-27.9
   ms at this budget (13-row sub-slabs), 27.6-31.3 ms at 1 MiB (29 rows),
   29.6-33.0 ms at 256 KiB (5 rows), 61-62 ms at 128 KiB (1 row: blur1
   computed three times over) and 29.4-30.2 ms with whole-task windows
   (4 MiB). *)
let window_budget = 512 * 1024

let task_points tasks =
  Array.fold_left
    (fun acc (lo, hi) ->
      let v = ref 1 in
      Array.iteri (fun d l -> v := !v * (hi.(d) - l)) lo;
      acc + !v)
    0 tasks

(* An inlined sweep drops the plan's parallel tiling along with the pool
   dispatch: when the demoted task array exactly partitions its bounding box
   (full-sweep tilings always do; interior/shell splits leave gaps and keep
   their shape), it collapses to one box-sized task, so a compiled fused
   sweep costs one kernel call — what the untiled sweep pays — instead of
   one per tile. Below the cutoff the whole sweep fits in cache, so the
   tiling bought no locality; tasks are disjoint and pointwise, so the
   merge is bit-exact. *)
let coalesce_tasks tasks =
  if Array.length tasks <= 1 then None
  else begin
    let lo0, hi0 = tasks.(0) in
    let d = Array.length lo0 in
    let lo = Array.copy lo0 and hi = Array.copy hi0 in
    let total = ref 0 in
    Array.iter
      (fun (tlo, thi) ->
        let pts = ref 1 in
        for k = 0 to d - 1 do
          if tlo.(k) < lo.(k) then lo.(k) <- tlo.(k);
          if thi.(k) > hi.(k) then hi.(k) <- thi.(k);
          pts := !pts * (thi.(k) - tlo.(k))
        done;
        total := !total + !pts)
      tasks;
    let bbox = ref 1 in
    for k = 0 to d - 1 do
      bbox := !bbox * (hi.(k) - lo.(k))
    done;
    if !bbox = !total then Some (lo, hi) else None
  end

(* Cutoff decision for one task array, memoised by the array's identity:
   every task array a runtime sweeps is built once (each stage's tiles at
   creation; a distributed rank's interior/shell split and temporal
   substeps once in [Distributed.create]), so after the first sweep the
   per-step cost is a pointer compare instead of a rescan — which matters
   when the sweep itself is only microseconds. Bounded to the eight most
   recently used arrays, so a caller sweeping fresh arrays evicts
   oldest-first instead of leaking. *)
type sweep_memo = {
  sm_tasks : (int array * int array) array;
  sm_points : int;
  sm_coalesced : (int array * int array) option;
}

type t = {
  stencil : Stencil.t;  (* the output stage's *)
  window : Grid.t array;  (* length W+1 *)
  aux : (string * Grid.t) list;  (* static coefficient grids *)
  bc_full : Bc.plan;  (* the refresh of every face, compiled once *)
  bc_constant : bool;  (* [bc_full] writes constants: a Dirichlet condition *)
  halo_set : bool array;
      (* per window slot: a constant [bc_full] has run on it since its halo
         was last written by anything else, so its halo is already right *)
  mutable cur : int;  (* index of the newest state (t-1) *)
  mutable steps_done : int;
  stages : stage array;  (* topological order; the last writes the output *)
  tasks : (int array * int array) array;  (* the plan's tiles *)
  slab_rows : int;  (* dimension-0 rows of one sub-slab *)
  margin : int;  (* rows a window holds past its sub-slab on each side *)
  placements : Interp.placement array;
      (* per worker: its windows (one per slot), placed at the sub-slab it
         checks *)
  graph_plan : Plan.graph_plan option;  (* present iff built by [create_graph] *)
  par : [ `Seq | `Block | `Round_robin ];
  pool : Msc_util.Domain_pool.t;
  mutable tile_dispatches : int;  (* tile tasks swept, cumulative *)
  mutable inline_dispatches : int;  (* parallel sweeps run inline, cumulative *)
  mutable sweep_memos : sweep_memo list;  (* cutoff decisions, MRU-bounded *)
  backend_report : backend_report;  (* dispatch counters patched on read *)
  trace : Msc_trace.t;
  tid : int;  (* label for this runtime's spans (the rank, when distributed) *)
  on_worker : (int -> unit) option;  (* attaches worker domains to [trace] *)
  points_per_step : float;  (* interior points swept per step *)
}

(* Static coefficient grids get a deterministic closed form keyed on the
   tensor name; halo cells use the same formula (fill_extended), so single
   node, distributed and generated-C executions all agree. *)
let aux_base name = 0.2 +. (0.015 *. float_of_int (Hashtbl.hash name mod 11))

let default_aux_init name coord =
  let acc = ref (aux_base name) in
  Array.iteri
    (fun d c -> acc := !acc +. (0.04 *. sin (float_of_int ((d + 2) * (c + 4)) *. 0.05)))
    coord;
  !acc

let aux_tensors_of (st : Stencil.t) =
  List.fold_left
    (fun acc k ->
      List.fold_left
        (fun acc (tensor : Tensor.t) ->
          if List.exists (fun (t : Tensor.t) -> String.equal t.Tensor.name tensor.Tensor.name) acc
          then acc
          else acc @ [ tensor ])
        acc k.Kernel.aux)
    [] (Stencil.kernels st)

let default_init _dt coord =
  (* A deterministic smooth field, identical across initial states so
     multi-time-dependency stencils start consistently. *)
  let acc = ref 0.37 in
  Array.iteri
      (fun d c ->
        acc := !acc +. (sin (float_of_int ((d + 1) * (c + 3)) *. 0.1) *. 0.13))
      coord;
    !acc

(* The window shape of a graph plan: its slot count, the dimension-0 rows
   of a sub-slab, and the rows a window holds past the sub-slab on each
   side (the largest producer extension). A sub-slab is as tall as the
   tallest task unless the windows would then exceed [window_budget]; a
   plan without windows has nothing to bound and never cuts a task. *)
let window_shape (gp : Plan.graph_plan) =
  let slots = gp.Plan.gp_n_buffers in
  let shape = gp.Plan.gp_graph.G.source.Tensor.shape and halo = gp.Plan.gp_halo in
  let row_elems = ref 1 in
  Array.iteri (fun d n -> if d > 0 then row_elems := !row_elems * (n + (2 * halo.(d)))) shape;
  let margin, task_rows =
    List.fold_left
      (fun (m, r) (sp : Plan.graph_stage_plan) ->
        match sp.Plan.gs_buffer with
        | Some _ -> (max m sp.Plan.gs_ext.(0), r)
        | None ->
            ( m,
              Array.fold_left (fun r (lo, hi) -> max r (hi.(0) - lo.(0))) r
                sp.Plan.gs_plan.Plan.tasks ))
      (0, 1) gp.Plan.gp_stages
  in
  let slab_rows =
    if slots = 0 then max_int
    else
      max 1 (min task_rows ((window_budget / (slots * !row_elems * 8)) - (2 * margin)))
  in
  (slots, slab_rows, margin, !row_elems)

let window_bytes gp =
  let slots, slab_rows, margin, row_elems = window_shape gp in
  if slots = 0 then 0 else slots * (slab_rows + (2 * margin)) * row_elems * 8

(* Points a state fill writes between two [Jit.poll]s: about a
   millisecond of a cheap [init], so a compiler slot that frees during the
   fill is refilled at once. On a 2-vCPU host, polling cut a cold
   unsharp_mask create at 4096^2 (two stage compiles, one compiler at a
   time) from 0.69-0.78 s to 0.51-0.60 s: the second compile had waited
   for the end of the fill. *)
let poll_points = 65536

(* [Grid.fill] in slabs of dimension-0 rows, polling the JIT in between:
   the same [init] calls in the same order as one whole fill. *)
let fill_polled g init =
  let rows = g.Grid.shape.(0) in
  let step = max 1 (poll_points * rows / Grid.interior_elems g) in
  let r = ref 0 in
  while !r < rows do
    let next = min rows (!r + step) in
    Grid.fill ~rows:(!r, next) g init;
    Jit.poll ();
    r := next
  done

(* The stage builder both constructors share. [stages] lists, in
   topological order, each stage's stencil, the digest of the plan its
   fused kernel is keyed under, its ghost-zone extension and its window
   slot ([None] for the output stage, last). [slot_of] maps a producer's
   tensor to its window slot; [tasks] are the output stage's tiles.

   Creation runs in three phases. Every stage's fused kernel compile is
   started first: its terms need only the source tensor's halo, not a
   grid. Then the state window is allocated, filled and given its first
   boundary pass, the static aux grids are filled, the stages are
   resolved against them and the per-worker windows are allocated, all
   while the compilers run (the fills poll them, so a queued compile
   starts as soon as a slot frees). Only then does the runtime wait for
   its kernels. A phase that raises still waits for every started compiler,
   so no child is left unreaped. *)
let build ~config ~init ~aux_init ~bc ~trace ~tid ~source ~time_window:w
    ~aux_tensors ~windows:(n_slots, slab_rows, margin) ~slot_of ~parallel
    ~graph_plan ~stencil ~tasks stages =
  let stages =
    List.map
      (fun (st, plan_digest, ext, dst) ->
        let sweep_terms = Backend.sweep_terms ~halo:source.Tensor.halo st in
        let kernels =
          List.length
            (List.filter
               (function Backend.Sweep_kernel _ -> true | Backend.Sweep_state _ -> false)
               sweep_terms)
        in
        (* A State-only stage has nothing to compile and no fallback to
           report. *)
        let job =
          match config.Exec.Config.backend with
          | Backend.Compiled_c when kernels > 0 ->
              Some (Jit.start_sweep ~trace ~plan_digest sweep_terms)
          | Backend.Compiled_c | Backend.Interp -> None
        in
        (st, ext, dst, sweep_terms, kernels, job))
      stages
  in
  let await_all () =
    List.iter (fun (_, _, _, _, _, job) -> Option.iter (fun j -> ignore (Jit.await j)) job) stages
  in
  let prepare () =
    (* Slot w holds the spare; slots 0..w-1 hold states t-1 .. t-w. *)
    let window = Array.init (w + 1) (fun _ -> Grid.of_tensor source) in
    let geometry = window.(0) in
    let bc_full = Bc.compile bc geometry in
    for dt = 1 to w do
      fill_polled window.(w - dt) (init dt);
      Bc.run bc_full window.(w - dt)
    done;
    let aux =
      List.map
        (fun (tensor : Tensor.t) ->
          let g = Grid.of_tensor tensor in
          Grid.fill_extended g (aux_init tensor.Tensor.name);
          Jit.poll ();
          (tensor.Tensor.name, g))
        aux_tensors
    in
    let kernel_terms = ref 0 in
    (* A stage up to its sweep function. *)
    let prepare_stage (st, ext, dst, sweep_terms, _, _) =
      let src_of name =
        if String.equal name source.Tensor.name then None
        else
          match slot_of name with
          | Some b -> Some b
          | None ->
              invalid_arg
                (Printf.sprintf "Runtime: stage %s reads %S which has no window"
                   st.Stencil.name name)
      in
      let input = src_of st.Stencil.grid.Tensor.name in
      (* Every range guards each kernel term with its interpreter
         compilation's checks, whichever backend sweeps it. *)
      let terms =
        List.map
          (fun { Stencil.kernel; dt; scale = _ } ->
            let kernel =
              Option.map
                (fun k ->
                  incr kernel_terms;
                  Interp.compile ~trace k ~geometry)
                kernel
            in
            { src = (match input with Some b -> Window b | None -> Past dt); kernel })
          (Stencil.terms st)
      in
      let aux_src n =
        if String.equal n source.Tensor.name then Source
        else
          match slot_of n with
          | Some b -> Aux_window b
          | None -> (
              match List.assoc_opt n aux with
              | Some g -> Static g
              | None ->
                  invalid_arg
                    (Printf.sprintf "Runtime: stage %s reads unbound tensor %S"
                       st.Stencil.name n))
      in
      let aux_names =
        List.sort_uniq String.compare
          (List.concat_map
             (fun (k : Kernel.t) ->
               List.map (fun (x : Tensor.t) -> x.Tensor.name) k.Kernel.aux)
             (Stencil.kernels st))
      in
      let aux_slot_srcs =
        Array.of_list (List.map aux_src (Backend.sweep_aux_slots sweep_terms))
      in
      fun sweep ->
        {
          terms;
          aux = List.map (fun n -> (n, aux_src n)) aux_names;
          aux_slot_srcs;
          dst;
          ext;
          grown = Array.exists (fun e -> e <> 0) ext;
          sweep;
          windowed =
            dst <> None || input <> None
            || Array.exists
                 (function Aux_window _ -> true | Static _ | Source -> false)
                 aux_slot_srcs;
          srcs = Array.make (List.length terms) [||];
          aux_slots =
            Array.map
              (function Static g -> g.Grid.data | Source | Aux_window _ -> [||])
              aux_slot_srcs;
        }
    in
    let prepared = List.map prepare_stage stages in
    let workers =
      match parallel with
      | Plan.Seq -> 1
      | Plan.Block _ | Plan.Round_robin _ -> Msc_util.Domain_pool.size config.Exec.Config.pool
    in
    let slab_shape =
      Array.mapi (fun d n -> if d = 0 then slab_rows + (2 * margin) else n) geometry.Grid.shape
    and slab_halo = Array.mapi (fun d h -> if d = 0 then 0 else h) geometry.Grid.halo in
    let windows =
      Array.init workers (fun _ ->
          Array.init n_slots (fun _ -> Grid.create ~shape:slab_shape ~halo:slab_halo))
    in
    (window, bc_full, aux, !kernel_terms, prepared, windows)
  in
  let window, bc_full, aux, kernel_terms, prepared, windows =
    match prepare () with
    | r -> r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        await_all ();
        Printexc.raise_with_backtrace e bt
  in
  let geometry = window.(0) in
  let fallback = ref None in
  let compiled_terms = ref 0 in
  let fused_sweeps = ref 0 in
  (* The JIT's fused kernel when it compiled one; else the interpreter's
     sweep, for the whole stage. *)
  let stages =
    Array.of_list
      (List.map2
         (fun (_, _, _, sweep_terms, kernels, job) finish ->
           finish
             (match Option.map Jit.await job with
             | Some (Ok fn) ->
                 incr fused_sweeps;
                 compiled_terms := !compiled_terms + kernels;
                 fn
             | Some (Error msg) ->
                 if !fallback = None then fallback := Some msg;
                 Interp.compile_sweep ~geometry sweep_terms
             | None -> Interp.compile_sweep ~geometry sweep_terms))
         stages prepared)
  in
  let backend = config.Exec.Config.backend in
  let bc_constant = match bc with Bc.Dirichlet _ -> true | Bc.Periodic | Bc.Reflect -> false in
  {
    stencil;
    window;
    aux;
    bc_full;
    bc_constant;
    (* The initial states got their boundary pass above; the spare did not. *)
    halo_set = Array.init (w + 1) (fun slot -> bc_constant && slot < w);
    cur = w - 1;
    steps_done = 0;
    stages;
    tasks;
    slab_rows;
    margin;
    placements = Array.map (fun windows -> { Interp.first_row = 0; windows }) windows;
    graph_plan;
    par =
      (match parallel with
      | Plan.Seq -> `Seq
      | Plan.Block _ -> `Block
      | Plan.Round_robin _ -> `Round_robin);
    pool = config.Exec.Config.pool;
    tile_dispatches = 0;
    inline_dispatches = 0;
    sweep_memos = [];
    backend_report =
      {
        requested = backend;
        effective = (if !compiled_terms > 0 then backend else Backend.Interp);
        kernel_terms;
        compiled_terms = !compiled_terms;
        fused_sweeps = !fused_sweeps;
        tile_dispatches = 0;
        pool_inline_cutoff;
        inline_dispatches = 0;
        fallback = !fallback;
      };
    trace;
    tid;
    on_worker =
      (if Msc_trace.enabled trace then
         Some (fun w -> Msc_trace.attach_worker trace ~tid:w)
       else None);
    points_per_step =
      float_of_int (Array.fold_left ( * ) 1 source.Tensor.shape);
  }

let create ?plan ?schedule ?(config = Exec.Config.default)
    ?(init = default_init) ?(aux_init = default_aux_init)
    ?(bc = Bc.Dirichlet 0.0) ?(trace = Msc_trace.disabled) ?(tid = 0)
    (st : Stencil.t) =
  (* All schedule interpretation lives in the plan layer: [?schedule] is
     sugar that lowers here, [?plan] shares a precompiled plan (the
     distributed runtime passes one per distinct rank extent). *)
  let plan =
    match plan with
    | Some p -> p
    | None -> (
        let sched = Option.value schedule ~default:Schedule.empty in
        match Plan.compile st sched with
        | Ok p -> p
        | Error msg -> invalid_arg ("Runtime.create: " ^ msg))
  in
  let t =
    build ~config ~init ~aux_init ~bc ~trace ~tid
      ~source:st.Stencil.grid
      ~time_window:(Stencil.time_window st) ~aux_tensors:(aux_tensors_of st)
      ~windows:(0, max_int, 0) ~slot_of:(fun _ -> None)
      ~parallel:plan.Plan.parallel ~graph_plan:None ~stencil:st
      ~tasks:plan.Plan.tasks
      [ (st, plan.Plan.digest, Array.make (Tensor.ndim st.Stencil.grid) 0, None) ]
  in
  if Msc_trace.enabled trace then begin
    (* Tag the execution trace with the plan's metadata so profiles can be
       read against the lowering that produced them. *)
    Msc_trace.add ~tid trace "plan.tiles" (float_of_int plan.Plan.tiles_count);
    Msc_trace.add ~tid trace "plan.working_set_bytes"
      (float_of_int plan.Plan.working_set_bytes);
    Msc_trace.add ~tid trace "plan.reuse_factor" plan.Plan.reuse_factor
  end;
  t

let create_graph ?graph_plan ?schedule ?(config = Exec.Config.default)
    ?(init = default_init) ?(aux_init = default_aux_init)
    ?(bc = Bc.Dirichlet 0.0) ?(trace = Msc_trace.disabled) ?(tid = 0)
    (graph : G.t) =
  let gp =
    match graph_plan with
    | Some p -> p
    | None -> (
        let sched = Option.value schedule ~default:Schedule.empty in
        match Plan.compile_graph graph sched with
        | Ok p -> p
        | Error msg -> invalid_arg ("Runtime.create_graph: " ^ msg))
  in
  let g = gp.Plan.gp_graph in
  let slot_of name =
    List.find_map
      (fun (sp : Plan.graph_stage_plan) ->
        if String.equal sp.Plan.gs_name name then sp.Plan.gs_buffer else None)
      gp.Plan.gp_stages
  in
  let output =
    List.find (fun (sp : Plan.graph_stage_plan) -> sp.Plan.gs_buffer = None) gp.Plan.gp_stages
  in
  let slots, slab_rows, margin, _ = window_shape gp in
  let t =
    build ~config ~init ~aux_init ~bc ~trace ~tid ~source:g.G.source
      ~time_window:gp.Plan.gp_time_window
      ~aux_tensors:(G.coefficient_tensors g) ~windows:(slots, slab_rows, margin)
      ~slot_of ~parallel:output.Plan.gs_plan.Plan.parallel ~graph_plan:(Some gp)
      ~stencil:(G.output_stage g).G.stencil ~tasks:output.Plan.gs_plan.Plan.tasks
      (List.map
         (fun (sp : Plan.graph_stage_plan) ->
           (sp.Plan.gs_stencil, sp.Plan.gs_plan.Plan.digest, sp.Plan.gs_ext, sp.Plan.gs_buffer))
         gp.Plan.gp_stages)
  in
  if Msc_trace.enabled trace then begin
    Msc_trace.add ~tid trace "graph.stages" (float_of_int (Array.length t.stages));
    Msc_trace.add ~tid trace "graph.buffers" (float_of_int slots);
    Msc_trace.add ~tid trace "graph.window_bytes" (float_of_int (window_bytes gp))
  end;
  t

let stencil t = t.stencil
let time_window t = Array.length t.window - 1
let steps_done t = t.steps_done
let backend_report t =
  {
    t.backend_report with
    tile_dispatches = t.tile_dispatches;
    inline_dispatches = t.inline_dispatches;
  }

let state t ~dt =
  let len = Array.length t.window in
  let w = len - 1 in
  if dt < 1 || dt > w then invalid_arg "Runtime.state: dt out of window";
  t.window.(((t.cur - (dt - 1)) mod len + len) mod len)

let current t = state t ~dt:1

let output_slot t =
  let len = Array.length t.window in
  t.window.((t.cur + 1) mod len)

let tiles t = t.tasks
let aux_grids t = t.aux

(* A worker's view of a stage's arrays: [windows] are its own. *)
let src_grid t windows = function Past dt -> state t ~dt | Window b -> windows.(b)

let dst_grid t windows stage =
  match stage.dst with Some b -> windows.(b) | None -> output_slot t

let aux_grid t windows = function
  | Static g -> g
  | Source -> current t
  | Aux_window b -> windows.(b)

(* Sweep functions perform no validation: every range guards each term
   with the interpreter's checks first, under the task's window
   placement (which names no window when the runtime has none). *)
let rec check_terms ~placement t windows ~aux ~dst ~lo ~hi = function
  | [] -> ()
  | tm :: rest ->
      let src = src_grid t windows tm.src in
      (match tm.kernel with
      | Some interp -> Interp.check_kernel_window placement ~aux interp ~src ~dst ~lo ~hi
      | None -> Interp.check_state_window placement ~src ~dst ~lo ~hi);
      check_terms ~placement t windows ~aux ~dst ~lo ~hi rest

let rec bind_aux t windows = function
  | [] -> []
  | (n, a) :: rest -> (n, aux_grid t windows a) :: bind_aux t windows rest

let check_stage ~placement t windows (stage : stage) ~lo ~hi =
  check_terms ~placement t windows
    ~aux:(bind_aux t windows stage.aux)
    ~dst:(dst_grid t windows stage) ~lo ~hi stage.terms

(* A stage that touches no window sweeps its shared arrays; a windowed
   one gets the worker's windows substituted, each moved by [shift] (see
   [Backend.sweep_fn]). *)
let run_stage ~shift t windows stage ~lo ~hi =
  let dst = (dst_grid t windows stage).Grid.data in
  if not stage.windowed then stage.sweep stage.srcs dst stage.aux_slots lo hi
  else begin
    let srcs = Array.copy stage.srcs and aux = Array.copy stage.aux_slots in
    let nsrc = Array.length srcs in
    let shifts = Array.make (nsrc + 1 + Array.length aux) 0 in
    let rec window_srcs k = function
      | [] -> ()
      | tm :: rest ->
          (match tm.src with
          | Window b ->
              srcs.(k) <- windows.(b).Grid.data;
              shifts.(k) <- shift
          | Past _ -> ());
          window_srcs (k + 1) rest
    in
    window_srcs 0 stage.terms;
    if stage.dst <> None then shifts.(nsrc) <- shift;
    for k = 0 to Array.length aux - 1 do
      match stage.aux_slot_srcs.(k) with
      | Aux_window b ->
          aux.(k) <- windows.(b).Grid.data;
          shifts.(nsrc + 1 + k) <- shift
      | Static _ | Source -> ()
    done;
    stage.sweep ~shifts srcs dst aux lo hi
  end

(* A sub-slab's windows hold its rows plus [margin] on each side; every
   stage runs over the sub-slab grown by its extension: [grow st (-1) lo]
   and [grow st 1 hi]. A stage without one (the output stage) keeps the
   corner as it is. *)
let grow st sign corner =
  if not st.grown then corner
  else begin
    let c = Array.copy corner in
    for d = 0 to Array.length c - 1 do
      c.(d) <- c.(d) + (sign * st.ext.(d))
    done;
    c
  end

(* Loops, not iterators, from here to the sweep: they run per task, and
   the iterators' closures would allocate. *)
let nonempty lo hi =
  let i = ref 0 in
  while !i < Array.length lo && lo.(!i) < hi.(!i) do
    incr i
  done;
  !i = Array.length lo

let check_slab t (placement : Interp.placement) ~lo ~hi =
  let windows = placement.Interp.windows in
  placement.Interp.first_row <- lo.(0) - t.margin;
  for i = 0 to Array.length t.stages - 1 do
    let st = t.stages.(i) in
    check_stage ~placement t windows st ~lo:(grow st (-1) lo) ~hi:(grow st 1 hi)
  done

let run_slab t windows ~lo ~hi =
  let geometry = output_slot t in
  let shift =
    (lo.(0) - t.margin + geometry.Grid.halo.(0)) * geometry.Grid.strides.(0)
  in
  for i = 0 to Array.length t.stages - 1 do
    let st = t.stages.(i) in
    run_stage ~shift t windows st ~lo:(grow st (-1) lo) ~hi:(grow st 1 hi)
  done

(* One task, cut along dimension 0 into sub-slabs of at most [slab_rows]
   rows (a runtime without windows has nothing to bound and never cuts).
   Every stage of every sub-slab is checked before any sweep, so a
   rejected task writes nothing; an empty task is checked and sweeps
   nothing. *)
let compute_range t placement ~lo ~hi =
  let windows = placement.Interp.windows in
  let rows = hi.(0) - lo.(0) in
  let nonempty = nonempty lo hi in
  if rows <= t.slab_rows then begin
    check_slab t placement ~lo ~hi;
    if nonempty then run_slab t windows ~lo ~hi
  end
  else begin
    let slo = Array.copy lo and shi = Array.copy hi in
    let next_slab first =
      slo.(0) <- first;
      shi.(0) <- min hi.(0) (first + t.slab_rows)
    in
    next_slab lo.(0);
    while slo.(0) < hi.(0) do
      check_slab t placement ~lo:slo ~hi:shi;
      next_slab shi.(0)
    done;
    if nonempty then begin
      next_slab lo.(0);
      while slo.(0) < hi.(0) do
        run_slab t windows ~lo:slo ~hi:shi;
        next_slab shi.(0)
      done
    end
  end

let rec find_memo tasks = function
  | [] -> None
  | m :: rest -> if m.sm_tasks == tasks then Some m else find_memo tasks rest

let sweep_memo t tasks =
  match find_memo tasks t.sweep_memos with
  | Some m -> m
  | None ->
      let points = task_points tasks in
      let coalesced =
        if points < pool_inline_cutoff then coalesce_tasks tasks else None
      in
      let m = { sm_tasks = tasks; sm_points = points; sm_coalesced = coalesced } in
      t.sweep_memos <- m :: List.filteri (fun i _ -> i < 7) t.sweep_memos;
      m

(* [compute_range] wrapped in a per-tile "sweep" span. On parallel paths the
   worker's attachment supplies the tid; sequential sweeps carry the
   runtime's own label (the rank, when distributed). *)
let sweep_seq t (lo, hi) =
  let ts0 = Msc_trace.begin_span t.trace in
  compute_range t t.placements.(0) ~lo ~hi;
  Msc_trace.end_span_on ~tid:t.tid t.trace "sweep" ts0

let sweep_worker t worker (lo, hi) =
  let ts0 = Msc_trace.begin_span t.trace in
  compute_range t t.placements.(worker) ~lo ~hi;
  Msc_trace.end_span t.trace "sweep" ts0

(* Re-resolve every stage's past-state and source-aux arrays: the state
   window rotated since the last sweep. Workers only read them. *)
let rec refresh_terms t st k = function
  | [] -> ()
  | tm :: rest ->
      (match tm.src with
      | Past dt -> st.srcs.(k) <- (state t ~dt).Grid.data
      | Window _ -> ());
      refresh_terms t st (k + 1) rest

let refresh t =
  for i = 0 to Array.length t.stages - 1 do
    let st = t.stages.(i) in
    refresh_terms t st 0 st.terms;
    for k = 0 to Array.length st.aux_slot_srcs - 1 do
      match st.aux_slot_srcs.(k) with
      | Source -> st.aux_slots.(k) <- (current t).Grid.data
      | Static _ | Aux_window _ -> ()
    done
  done

(* Sweep an explicit task array of the output stage (producers tile-local)
   under the plan's parallel dispatch. Every cell's value depends only on
   the input window, so any partition of the tasks (the plan's tiles, or
   their interior/shell split) produces bit-identical output in any order;
   each worker computes producers into its own windows. *)
let sweep_tasks t tasks =
  let ntiles = Array.length tasks in
  t.tile_dispatches <- t.tile_dispatches + ntiles;
  refresh t;
  (* Inline cutoff: a sweep too small to amortise the pool's wake+barrier
     runs on the calling domain regardless of the plan's parallel mode.
     Bit-identity is free — tasks are independent, so dispatch shape never
     changes results. *)
  let par =
    match t.par with
    | `Seq -> `Seq
    | (`Block | `Round_robin) as p ->
        let m = sweep_memo t tasks in
        if m.sm_points < pool_inline_cutoff then begin
          t.inline_dispatches <- t.inline_dispatches + 1;
          `Inline m.sm_coalesced
        end
        else p
  in
  match par with
  | `Inline (Some task) -> sweep_seq t task
  | `Inline None | `Seq ->
      for id = 0 to ntiles - 1 do
        sweep_seq t tasks.(id)
      done
  | `Block ->
      Msc_util.Domain_pool.parallel_blocks ?on_worker:t.on_worker t.pool ~lo:0
        ~hi:ntiles (fun ~worker id -> sweep_worker t worker tasks.(id))
  | `Round_robin ->
      Msc_util.Domain_pool.parallel_chunks ?on_worker:t.on_worker t.pool ~lo:0
        ~hi:ntiles (fun ~worker id -> sweep_worker t worker tasks.(id))

(* Sweeps write through, so the output slot needs no preparation. *)
let begin_step (_ : t) = ()

let finish_step ?refresh t =
  Msc_trace.add_on ~tid:t.tid t.trace "sweep.points" t.points_per_step;
  let ts_bc = Msc_trace.begin_span t.trace in
  let slot = (t.cur + 1) mod Array.length t.window in
  (match refresh with
  | Some plan ->
      Bc.run plan t.window.(slot);
      t.halo_set.(slot) <- false
  | None ->
      (* Sweeps write interior cells only, so a constant halo written once
         stays right for as long as the slot is reused. *)
      if not t.halo_set.(slot) then begin
        Bc.run t.bc_full t.window.(slot);
        t.halo_set.(slot) <- t.bc_constant
      end);
  Msc_trace.end_span_on ~tid:t.tid t.trace "bc.apply" ts_bc;
  let ts_rot = Msc_trace.begin_span t.trace in
  t.cur <- (t.cur + 1) mod Array.length t.window;
  t.steps_done <- t.steps_done + 1;
  Msc_trace.end_span_on ~tid:t.tid t.trace "window.rotate" ts_rot

let graph_plan t = t.graph_plan

(* A graph runs as one stage: producers are computed inside each task. *)
let graph_stage_count _ = 1

let graph_stage t i =
  if i <> 0 then
    invalid_arg (Printf.sprintf "Runtime: graph stage %d of 1" i);
  t

let graph_stage_tasks t i = tiles (graph_stage t i)
let sweep_graph_stage t i tasks = sweep_tasks (graph_stage t i) tasks

let step t =
  sweep_tasks t t.tasks;
  finish_step t

let run t n =
  for _ = 1 to n do
    step t
  done
