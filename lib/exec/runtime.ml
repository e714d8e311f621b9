open Msc_ir
module Schedule = Msc_schedule.Schedule
module Plan = Msc_schedule.Plan
module G = Msc_graph.Graph

(* A runtime steps a pipeline of stages over one stepped source grid: each
   stage sweeps its tasks into a scratch buffer, the last one into the
   window's spare slot, and the window rotates. A single stencil is the
   one-stage pipeline whose only stage writes the output slot.

   Where a term's input grid comes from: a past state of the stepped
   source, or an intermediate stage's scratch buffer (always the current
   step — intermediates are recomputed, never stepped). *)
type source = Past of int | Buffer of int

type term = {
  src : source;
  kernel : Interp.t option;
      (* a kernel term's compiled checks; [None] = identity (State) term *)
}

type stage = {
  terms : term list;
  aux_static : (string * Grid.t) list;
      (* coefficient grids + predecessor buffers, resolved once: buffer
         slot assignment is static, grid identities never change *)
  aux_source : string option;
      (* the source tensor's name when a kernel reads it as aux (bound
         per sweep to [state ~dt:1]: the window rotates) *)
  dst : [ `Buffer of int | `Output ];
  tasks : (int array * int array) array;
  (* The whole-sweep kernel, JIT-compiled or interpreted: every term
     folded into one write-through call per task. [srcs] holds one source
     array per term and is refreshed per dispatch (the window rotates
     between steps); [aux_slots] concatenates every term's aux slots,
     static except the [aux_refresh] slots bound to the source. *)
  sweep : Backend.sweep_fn;
  srcs : float array array;
  aux_slots : float array array;
  aux_refresh : int list;
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
  mutable cur : int;  (* index of the newest state (t-1) *)
  mutable steps_done : int;
  buffers : Grid.t array;  (* intermediate stage outputs *)
  stages : stage array;  (* topological order; the last writes the output *)
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

(* The stage builder both constructors share. [stages] lists, in
   topological order, each stage's stencil, the digest of the plan its
   fused kernel is keyed under, its task array and its destination.
   [slot_of] maps an intermediate tensor to its scratch buffer. *)
let build ~config ~init ~aux_init ~bc ~trace ~tid ~source
    ~time_window:w ~aux_tensors ~n_buffers ~slot_of ~parallel ~graph_plan
    ~stencil stages =
  let geometry = Grid.of_tensor source in
  let window = Array.init (w + 1) (fun _ -> Grid.like geometry) in
  let bc_full = Bc.compile bc geometry in
  (* Slot w holds the spare; slots 0..w-1 hold states t-1 .. t-w. *)
  for dt = 1 to w do
    Grid.fill window.(w - dt) (init dt);
    Bc.run bc_full window.(w - dt)
  done;
  let aux =
    List.map
      (fun (tensor : Tensor.t) ->
        let g = Grid.of_tensor tensor in
        Grid.fill_extended g (aux_init tensor.Tensor.name);
        (tensor.Tensor.name, g))
      aux_tensors
  in
  let buffers = Array.init n_buffers (fun _ -> Grid.like geometry) in
  let fallback = ref None in
  let kernel_terms = ref 0 in
  let compiled_terms = ref 0 in
  let fused_sweeps = ref 0 in
  let build_stage (st, plan_digest, tasks, dst) =
    let input_name = st.Stencil.grid.Tensor.name in
    let src_of dt =
      if String.equal input_name source.Tensor.name then Past dt
      else
        match slot_of input_name with
        | Some b -> Buffer b
        | None ->
            invalid_arg
              (Printf.sprintf "Runtime: stage %s reads %S which has no buffer"
                 st.Stencil.name input_name)
    in
    (* Every task guards each kernel term with its interpreter
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
          { src = src_of dt; kernel })
        (Stencil.terms st)
    in
    let aux_names =
      List.sort_uniq String.compare
        (List.concat_map
           (fun (k : Kernel.t) ->
             List.map (fun (x : Tensor.t) -> x.Tensor.name) k.Kernel.aux)
           (Stencil.kernels st))
    in
    let aux_source = ref None in
    let aux_grid n =
      match slot_of n with
      | Some b -> buffers.(b)
      | None -> (
          match List.assoc_opt n aux with
          | Some g -> g
          | None ->
              invalid_arg
                (Printf.sprintf "Runtime: stage %s reads unbound tensor %S"
                   st.Stencil.name n))
    in
    let aux_static =
      List.filter_map
        (fun n ->
          if String.equal n source.Tensor.name then begin
            aux_source := Some n;
            None
          end
          else Some (n, aux_grid n))
        aux_names
    in
    let sweep_terms = Backend.sweep_terms ~halo:geometry.Grid.halo st in
    let stage_kernel_terms =
      List.length (List.filter (fun tm -> tm.kernel <> None) terms)
    in
    (* The JIT's fused kernel when it compiles one; else the interpreter's
       sweep, for the whole stage (a State-only stage has no kernel to
       compile and no fallback to report). *)
    let jit =
      match config.Exec.Config.backend with
      | Backend.Compiled_c when stage_kernel_terms > 0 -> (
          match Jit.compile_sweep ~trace ~plan_digest sweep_terms with
          | Ok fn ->
              incr fused_sweeps;
              compiled_terms := !compiled_terms + stage_kernel_terms;
              Some fn
          | Error msg ->
              if !fallback = None then fallback := Some msg;
              None)
      | Backend.Compiled_c | Backend.Interp -> None
    in
    let sweep =
      match jit with
      | Some fn -> fn
      | None -> Interp.compile_sweep ~geometry sweep_terms
    in
    let names = Backend.sweep_aux_slots sweep_terms in
    let aux_slots = Array.make (List.length names) [||] in
    let aux_refresh = ref [] in
    List.iteri
      (fun i n ->
        if String.equal n source.Tensor.name then aux_refresh := i :: !aux_refresh
        else aux_slots.(i) <- (aux_grid n).Grid.data)
      names;
    {
      terms;
      aux_static;
      aux_source = !aux_source;
      dst;
      tasks;
      sweep;
      srcs = Array.make (List.length terms) [||];
      aux_slots;
      aux_refresh = !aux_refresh;
    }
  in
  let stages = Array.of_list (List.map build_stage stages) in
  let backend = config.Exec.Config.backend in
  {
    stencil;
    window;
    aux;
    bc_full;
    cur = w - 1;
    steps_done = 0;
    buffers;
    stages;
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
        kernel_terms = !kernel_terms;
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
      ~n_buffers:0 ~slot_of:(fun _ -> None) ~parallel:plan.Plan.parallel
      ~graph_plan:None ~stencil:st
      [ (st, plan.Plan.digest, plan.Plan.tasks, `Output) ]
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
  let source = g.G.source in
  let slot_of name =
    List.find_map
      (fun (sp : Plan.graph_stage_plan) ->
        if String.equal sp.Plan.gs_name name then sp.Plan.gs_buffer else None)
      gp.Plan.gp_stages
  in
  let all_true = Array.make (Tensor.ndim source) true in
  let parallel =
    match gp.Plan.gp_stages with
    | sp :: _ -> sp.Plan.gs_plan.Plan.parallel
    | [] -> assert false
  in
  let t =
    build ~config ~init ~aux_init ~bc ~trace ~tid
      ~source ~time_window:gp.Plan.gp_time_window
      ~aux_tensors:(G.coefficient_tensors g) ~n_buffers:gp.Plan.gp_n_buffers
      ~slot_of ~parallel ~graph_plan:(Some gp)
      ~stencil:(G.output_stage g).G.stencil
      (List.map
         (fun (sp : Plan.graph_stage_plan) ->
           ( sp.Plan.gs_stencil,
             sp.Plan.gs_plan.Plan.digest,
             (* plan tasks grown by the stage's ghost-zone extension *)
             Plan.extend_tasks ~shape:source.Tensor.shape ~ext:sp.Plan.gs_ext
               ~grow_low:all_true ~grow_high:all_true sp.Plan.gs_plan.Plan.tasks,
             match sp.Plan.gs_buffer with Some b -> `Buffer b | None -> `Output ))
         gp.Plan.gp_stages)
  in
  if Msc_trace.enabled trace then begin
    Msc_trace.add ~tid trace "graph.stages" (float_of_int (Array.length t.stages));
    Msc_trace.add ~tid trace "graph.buffers" (float_of_int gp.Plan.gp_n_buffers)
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

let output_stage t = t.stages.(Array.length t.stages - 1)
let tiles t = (output_stage t).tasks
let aux_grids t = t.aux

let term_src t tm =
  match tm.src with Past dt -> state t ~dt | Buffer i -> t.buffers.(i)

let stage_dst t stage =
  match stage.dst with `Buffer i -> t.buffers.(i) | `Output -> output_slot t

let stage_aux t stage =
  match stage.aux_source with
  | None -> stage.aux_static
  | Some n -> (n, current t) :: stage.aux_static

(* Sweep functions perform no validation: every task guards each term
   with the interpreter's checks first. [srcs] and the refresh slots were
   refilled by the dispatching sweep. *)
let compute_range t stage ~dst ~lo ~hi =
  let aux = stage_aux t stage in
  List.iter
    (fun tm ->
      let src = term_src t tm in
      match tm.kernel with
      | Some interp ->
          Interp.check_grids ~aux interp ~src ~dst;
          Interp.check_range interp ~lo ~hi
      | None -> Interp.check_state ~src ~dst)
    stage.terms;
  stage.sweep stage.srcs dst.Grid.data stage.aux_slots lo hi

let sweep_memo t tasks =
  match List.find_opt (fun m -> m.sm_tasks == tasks) t.sweep_memos with
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
let sweep_one ?tid t stage ~dst (lo, hi) =
  let ts0 = Msc_trace.begin_span t.trace in
  compute_range t stage ~dst ~lo ~hi;
  Msc_trace.end_span ?tid t.trace "sweep" ts0

(* Sweep an explicit task array of one stage into its destination under
   the plan's parallel dispatch. Every cell's value depends only on the
   stage's inputs, so any partition of its tasks — the plan's tiles, or
   their interior/shell split — produces bit-identical output in any
   order. *)
let sweep_stage t stage tasks =
  let dst = stage_dst t stage in
  let ntiles = Array.length tasks in
  t.tile_dispatches <- t.tile_dispatches + ntiles;
  (* Re-resolve each term's source array: the window rotated since the
     last sweep. Workers only read the refreshed arrays. *)
  List.iteri (fun i tm -> stage.srcs.(i) <- (term_src t tm).Grid.data) stage.terms;
  List.iter (fun i -> stage.aux_slots.(i) <- (current t).Grid.data) stage.aux_refresh;
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
  | `Inline (Some task) -> sweep_one ~tid:t.tid t stage ~dst task
  | `Inline None | `Seq ->
      for id = 0 to ntiles - 1 do
        sweep_one ~tid:t.tid t stage ~dst tasks.(id)
      done
  | `Block ->
      Msc_util.Domain_pool.parallel_for ?on_worker:t.on_worker t.pool ~lo:0
        ~hi:ntiles (fun id -> sweep_one t stage ~dst tasks.(id))
  | `Round_robin ->
      Msc_util.Domain_pool.parallel_chunks ?on_worker:t.on_worker t.pool ~lo:0
        ~hi:ntiles (fun ~worker:_ id -> sweep_one t stage ~dst tasks.(id))

(* Sweeps write through, so the output slot needs no preparation. *)
let begin_step (_ : t) = ()

let sweep_tasks t tasks = sweep_stage t (output_stage t) tasks

let finish_step ?refresh t =
  Msc_trace.add ~tid:t.tid t.trace "sweep.points" t.points_per_step;
  let ts_bc = Msc_trace.begin_span t.trace in
  Bc.run (Option.value refresh ~default:t.bc_full) (output_slot t);
  Msc_trace.end_span ~tid:t.tid t.trace "bc.apply" ts_bc;
  let ts_rot = Msc_trace.begin_span t.trace in
  t.cur <- (t.cur + 1) mod Array.length t.window;
  t.steps_done <- t.steps_done + 1;
  Msc_trace.end_span ~tid:t.tid t.trace "window.rotate" ts_rot

let graph_plan t = t.graph_plan
let graph_stage_count t = Array.length t.stages
let graph_stage_tasks t i = t.stages.(i).tasks
let sweep_graph_stage t i tasks = sweep_stage t t.stages.(i) tasks

(* Sweep every stage in topological order over its own tasks into its
   buffer (or the output slot), then finish the step: intermediates carry
   no BC, the output slot gets the full BC pass. *)
let step t =
  Array.iter (fun stage -> sweep_stage t stage stage.tasks) t.stages;
  finish_step t

let run t n =
  for _ = 1 to n do
    step t
  done
