open Msc_ir
module Schedule = Msc_schedule.Schedule
module Plan = Msc_schedule.Plan
module G = Msc_graph.Graph

(* One stencil term's execution state: the interpreter compilation is
   always present (the semantic reference and the fallback); [compiled]
   holds the backend's loaded kernel when the JIT produced one; [jit_aux]
   is the per-bilinear-term aux data resolved once at creation (the aux
   grids are static), [||] for taps kernels. *)
type kernel_exec = {
  interp : Interp.t;
  compiled : Backend.kernel_fn option;
  jit_aux : float array array;
}

type term = { scale : float; source : source; dt : int }
and source = From_kernel of kernel_exec | From_state

(* ------------------------------------------------------------------ *)
(* Pipeline graph execution state. A graph runtime reuses the window /
   BC / rotation machinery of [t] (the stepped source grid behaves
   exactly as a single stencil's would) and adds per-stage sweeps into
   scratch buffers. Stage kernels are interpreted in forced tree mode:
   the taps/bilinear fast paths merge duplicate taps and fold/distribute
   coefficients, which is bit-equal for a kernel on its own but not for
   a fused compound kernel versus its unfused reference — literal tree
   evaluation is the one mode where substitution preserves every bit. *)

(* Where a stage term's input grid comes from: a past state of the
   stepped source, or an intermediate stage's scratch buffer (always the
   current step — intermediates are recomputed, never stepped). *)
type gsource = G_state of int | G_buffer of int

type gterm = {
  g_scale : float;
  g_src : gsource;
  g_kernel : Interp.t option;  (* [None] = identity (State) term *)
}

type stage_exec = {
  sx_name : string;
  sx_terms : gterm list;
  sx_aux_static : (string * Grid.t) list;
      (* coefficient grids + predecessor buffers, resolved once: buffer
         slot assignment is static, grid identities never change *)
  sx_aux_source : string option;
      (* the source tensor's name when a kernel reads it as aux (bound
         per sweep to [state ~dt:1]: the window rotates) *)
  sx_dst : [ `Buffer of int | `Output ];
  sx_tasks : (int array * int array) array;
      (* plan tasks grown by the stage's ghost-zone extension *)
  sx_fused : Backend.sweep_fn option;  (* per-stage fused JIT sweep *)
  sx_fused_srcs : float array array;
  sx_fused_aux : float array array;
  sx_aux_refresh : int list;
      (* [sx_fused_aux] slots bound to the source, refilled per sweep *)
}

type graph_exec = {
  gx_plan : Plan.graph_plan;
  gx_buffers : Grid.t array;
  gx_stages : stage_exec array;
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
   the calling domain instead. Override with MSC_POOL_INLINE_CUTOFF=<n>
   (read once at startup; 0 disables inlining). *)
let pool_inline_cutoff =
  match
    Option.bind (Sys.getenv_opt "MSC_POOL_INLINE_CUTOFF") int_of_string_opt
  with
  | Some n when n >= 0 -> n
  | _ -> 32768

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
   [t.tiles] and per-stage task arrays are built once per runtime, so after
   the first sweep the per-step cost is a pointer compare instead of a
   rescan — which matters when the sweep itself is only microseconds.
   Bounded so transient arrays (distributed interior/shell splits built per
   step) evict oldest-first instead of leaking. *)
type sweep_memo = {
  sm_tasks : (int array * int array) array;
  sm_points : int;
  sm_coalesced : (int array * int array) option;
}

type t = {
  stencil : Stencil.t;
  terms : term list;
  window : Grid.t array;  (* length W+1 *)
  aux : (string * Grid.t) list;  (* static coefficient grids *)
  bc : Bc.t;
  mutable cur : int;  (* index of the newest state (t-1) *)
  mutable steps_done : int;
  tiles : (int array * int array) array;
  par : [ `Seq | `Block | `Round_robin ];
  pool : Msc_util.Domain_pool.t;
  (* The fused whole-sweep kernel, when the backend compiled one: every
     term folded into one write-through call per task. [fused_srcs] holds
     one source array per term and is refreshed per dispatch (the window
     rotates between steps); [fused_aux] concatenates every term's aux
     slots and is static. *)
  fused : Backend.sweep_fn option;
  fused_srcs : float array array;
  fused_aux : float array array;
  mutable tile_dispatches : int;  (* tile tasks swept, cumulative *)
  mutable inline_dispatches : int;  (* parallel sweeps run inline, cumulative *)
  mutable sweep_memos : sweep_memo list;  (* cutoff decisions, MRU-bounded *)
  backend_report : backend_report;  (* dispatch counters patched on read *)
  trace : Msc_trace.t;
  tid : int;  (* label for this runtime's spans (the rank, when distributed) *)
  on_worker : (int -> unit) option;  (* attaches worker domains to [trace] *)
  points_per_step : float;  (* interior points swept per step *)
  graph : graph_exec option;  (* present iff built by [create_graph] *)
}

let rec flatten scale (e : Stencil.expr) =
  match e with
  | Stencil.Apply (k, dt) -> [ (scale, `Kernel k, dt) ]
  | Stencil.State dt -> [ (scale, `State, dt) ]
  | Stencil.Scale (c, a) -> flatten (scale *. c) a
  | Stencil.Sum (a, b) -> flatten scale a @ flatten scale b
  | Stencil.Diff (a, b) -> flatten scale a @ flatten (-.scale) b

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

let create ?plan ?schedule ?(config = Exec.Config.default)
    ?(init = default_init) ?(aux_init = default_aux_init)
    ?(bc = Bc.Dirichlet 0.0) ?(trace = Msc_trace.disabled) ?(tid = 0)
    (st : Stencil.t) =
  let geometry = Grid.of_tensor st.Stencil.grid in
  let w = Stencil.time_window st in
  let window = Array.init (w + 1) (fun _ -> Grid.like geometry) in
  (* Slot w holds the spare; slots 0..w-1 hold states t-1 .. t-w. *)
  for dt = 1 to w do
    Grid.fill window.(w - dt) (init dt);
    Bc.apply bc window.(w - dt)
  done;
  let aux =
    List.map
      (fun (tensor : Tensor.t) ->
        let g = Grid.of_tensor tensor in
        Grid.fill_extended g (aux_init tensor.Tensor.name);
        (tensor.Tensor.name, g))
      (aux_tensors_of st)
  in
  let shape = st.Stencil.grid.Tensor.shape in
  (* All schedule interpretation lives in the plan layer: [?schedule] is
     sugar that lowers here, [?plan] shares a precompiled plan (the
     distributed runtime passes one per distinct rank extent). The plan is
     resolved before the terms because its digest keys the kernel cache. *)
  let plan =
    match plan with
    | Some p -> p
    | None -> (
        let sched = Option.value schedule ~default:Schedule.empty in
        match Plan.compile st sched with
        | Ok p -> p
        | Error msg -> invalid_arg ("Runtime.create: " ^ msg))
  in
  let backend = config.Exec.Config.backend in
  let fallback = ref None in
  (* Interpreter compilations first: they are the semantic reference for
     both the fused and the per-term compiled paths. *)
  let pre_terms =
    List.map
      (fun (scale, src, dt) ->
        match src with
        | `Kernel k -> (scale, `Kernel (Interp.compile ~trace k ~geometry), dt)
        | `State -> (scale, `State, dt))
      (flatten 1.0 st.Stencil.expr)
  in
  let kernel_terms =
    List.length
      (List.filter (fun (_, s, _) -> match s with `Kernel _ -> true | `State -> false) pre_terms)
  in
  let aux_data_of name =
    Option.map (fun (g : Grid.t) -> g.Grid.data) (List.assoc_opt name aux)
  in
  (* Tentpole path: one fused kernel for the whole sweep. Attempted first;
     per-term kernels are only compiled when fusion is off or failed. *)
  let sweep_terms =
    List.map
      (fun (scale, src, _) ->
        match src with
        | `Kernel interp -> Jit.Sweep_kernel { scale; interp }
        | `State -> Jit.Sweep_state { scale })
      pre_terms
  in
  let fused_aux_resolved =
    (* Every named aux slot must have a grid, or the fused kernel cannot be
       given its arrays (defensive: Stencil kernels always register their
       aux tensors, so this only trips on hand-built runtimes). *)
    List.for_all
      (function
        | Jit.Sweep_state _ -> true
        | Jit.Sweep_kernel { interp; _ } ->
            List.for_all
              (fun n -> aux_data_of n <> None)
              (Jit.sweep_term_aux_names interp))
      sweep_terms
  in
  let fused =
    if
      backend = Backend.Interp
      || (not config.Exec.Config.fuse)
      || kernel_terms = 0
      || not fused_aux_resolved
    then None
    else
      match
        Jit.compile_sweep ~trace ~backend ~plan_digest:plan.Plan.digest
          sweep_terms
      with
      | Ok fn -> Some fn
      | Error _ -> None
  in
  let compiled_terms = ref (if fused <> None then kernel_terms else 0) in
  let term_ix = ref 0 in
  let jit_aux_of interp =
    Array.map
      (function
        | Some name -> (
            match aux_data_of name with Some data -> data | None -> [||])
        | None -> [||])
      (Jit.per_term_aux_names interp)
  in
  let terms =
    List.map
      (fun (scale, src, dt) ->
        match src with
        | `Kernel interp ->
            let i = !term_ix in
            incr term_ix;
            let compiled =
              if backend = Backend.Interp || fused <> None then None
              else if
                (* A named aux tensor with no grid cannot be resolved into
                   the compiled ABI; keep that term on the interpreter. *)
                not
                  (Array.for_all
                     (function
                       | Some n -> aux_data_of n <> None | None -> true)
                     (Jit.per_term_aux_names interp))
              then begin
                if !fallback = None then
                  fallback := Some "kernel reads an aux tensor with no grid";
                None
              end
              else
                match
                  Jit.compile_term ~trace ~backend
                    ~plan_digest:plan.Plan.digest ~term_index:i interp
                with
                | Ok fn ->
                    incr compiled_terms;
                    Some fn
                | Error msg ->
                    if !fallback = None then fallback := Some msg;
                    None
            in
            {
              scale;
              source = From_kernel { interp; compiled; jit_aux = jit_aux_of interp };
              dt;
            }
        | `State -> { scale; source = From_state; dt })
      pre_terms
  in
  let fused_srcs =
    if fused = None then [||]
    else Array.make (List.length terms) [||]
  in
  let fused_aux =
    if fused = None then [||]
    else
      Array.of_list
        (List.concat_map
           (function
             | Jit.Sweep_state _ -> []
             | Jit.Sweep_kernel { interp; _ } ->
                 List.map
                   (fun n -> Option.get (aux_data_of n))
                   (Jit.sweep_term_aux_names interp))
           sweep_terms)
  in
  let backend_report =
    {
      requested = backend;
      effective = (if !compiled_terms > 0 then backend else Backend.Interp);
      kernel_terms;
      compiled_terms = !compiled_terms;
      fused_sweeps = (if fused = None then 0 else 1);
      tile_dispatches = 0;
      pool_inline_cutoff;
      inline_dispatches = 0;
      fallback = !fallback;
    }
  in
  let tiles = plan.Plan.tasks in
  let par =
    match plan.Plan.parallel with
    | Plan.Seq -> `Seq
    | Plan.Block _ -> `Block
    | Plan.Round_robin _ -> `Round_robin
  in
  if Msc_trace.enabled trace then begin
    (* Tag the execution trace with the plan's metadata so profiles can be
       read against the lowering that produced them. *)
    Msc_trace.add ~tid trace "plan.tiles" (float_of_int plan.Plan.tiles_count);
    Msc_trace.add ~tid trace "plan.working_set_bytes"
      (float_of_int plan.Plan.working_set_bytes);
    Msc_trace.add ~tid trace "plan.reuse_factor" plan.Plan.reuse_factor
  end;
  let on_worker =
    if Msc_trace.enabled trace then
      Some (fun w -> Msc_trace.attach_worker trace ~tid:w)
    else None
  in
  {
    stencil = st;
    terms;
    window;
    aux;
    bc;
    cur = w - 1;
    steps_done = 0;
    tiles;
    par;
    pool = config.Exec.Config.pool;
    fused;
    fused_srcs;
    fused_aux;
    tile_dispatches = 0;
    inline_dispatches = 0;
    sweep_memos = [];
    backend_report;
    trace;
    tid;
    on_worker;
    points_per_step = float_of_int (Array.fold_left ( * ) 1 shape);
    graph = None;
  }

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
  let geometry = Grid.of_tensor source in
  let w = gp.Plan.gp_time_window in
  let window = Array.init (w + 1) (fun _ -> Grid.like geometry) in
  for dt = 1 to w do
    Grid.fill window.(w - dt) (init dt);
    Bc.apply bc window.(w - dt)
  done;
  let aux =
    List.map
      (fun (tensor : Tensor.t) ->
        let gr = Grid.of_tensor tensor in
        Grid.fill_extended gr (aux_init tensor.Tensor.name);
        (tensor.Tensor.name, gr))
      (G.coefficient_tensors g)
  in
  let buffers = Array.init gp.Plan.gp_n_buffers (fun _ -> Grid.like geometry) in
  let slot_of name =
    List.find_map
      (fun (sp : Plan.graph_stage_plan) ->
        if String.equal sp.Plan.gs_name name then sp.Plan.gs_buffer else None)
      gp.Plan.gp_stages
  in
  let backend = config.Exec.Config.backend in
  let fallback = ref None in
  let kernel_terms_total = ref 0 in
  let compiled_terms = ref 0 in
  let fused_stages = ref 0 in
  let shape = source.Tensor.shape in
  let all_true = Array.make (Tensor.ndim source) true in
  let build_stage (sp : Plan.graph_stage_plan) =
    let st = sp.Plan.gs_stencil in
    let input_name = st.Stencil.grid.Tensor.name in
    let input_is_source = String.equal input_name source.Tensor.name in
    let src_of dt =
      if input_is_source then G_state dt
      else
        match slot_of input_name with
        | Some b -> G_buffer b
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Runtime.create_graph: stage %s reads %S which has no buffer"
                 sp.Plan.gs_name input_name)
    in
    (* Graph stages always interpret in tree mode — see the comment on
       [gsource] above. *)
    let pre_terms =
      List.map
        (fun (scale, src, dt) ->
          match src with
          | `Kernel k ->
              incr kernel_terms_total;
              (scale, `Kernel (Interp.compile ~trace ~force_tree:true k ~geometry), dt)
          | `State -> (scale, `State, dt))
        (flatten 1.0 st.Stencil.expr)
    in
    let aux_names =
      List.sort_uniq String.compare
        (List.concat_map
           (fun (k : Kernel.t) ->
             List.map (fun (x : Tensor.t) -> x.Tensor.name) k.Kernel.aux)
           (Stencil.kernels st))
    in
    let aux_source = ref None in
    let aux_static =
      List.filter_map
        (fun n ->
          if String.equal n source.Tensor.name then begin
            aux_source := Some n;
            None
          end
          else
            match slot_of n with
            | Some b -> Some (n, buffers.(b))
            | None -> (
                match List.assoc_opt n aux with
                | Some gr -> Some (n, gr)
                | None ->
                    invalid_arg
                      (Printf.sprintf
                         "Runtime.create_graph: stage %s reads unbound tensor %S"
                         sp.Plan.gs_name n)))
        aux_names
    in
    let terms =
      List.map
        (fun (scale, src, dt) ->
          match src with
          | `Kernel interp ->
              { g_scale = scale; g_src = src_of dt; g_kernel = Some interp }
          | `State -> { g_scale = scale; g_src = src_of dt; g_kernel = None })
        pre_terms
    in
    let sweep_terms =
      List.map
        (fun (scale, src, _) ->
          match src with
          | `Kernel interp -> Jit.Sweep_kernel { scale; interp }
          | `State -> Jit.Sweep_state { scale })
        pre_terms
    in
    let stage_kernel_terms =
      List.length
        (List.filter
           (function Jit.Sweep_kernel _ -> true | Jit.Sweep_state _ -> false)
           sweep_terms)
    in
    let fused =
      if
        backend = Backend.Interp
        || (not config.Exec.Config.fuse)
        || stage_kernel_terms = 0
      then None
      else
        match
          Jit.compile_sweep ~trace ~backend
            ~plan_digest:sp.Plan.gs_plan.Plan.digest sweep_terms
        with
        | Ok fn ->
            incr fused_stages;
            compiled_terms := !compiled_terms + stage_kernel_terms;
            Some fn
        | Error msg ->
            if !fallback = None then fallback := Some msg;
            None
    in
    let sx_fused_aux, sx_aux_refresh =
      if fused = None then ([||], [])
      else begin
        let names =
          List.concat_map
            (function
              | Jit.Sweep_state _ -> []
              | Jit.Sweep_kernel { interp; _ } -> Jit.sweep_term_aux_names interp)
            sweep_terms
        in
        let arr = Array.make (List.length names) [||] in
        let refresh = ref [] in
        List.iteri
          (fun i n ->
            if String.equal n source.Tensor.name then refresh := i :: !refresh
            else
              match slot_of n with
              | Some b -> arr.(i) <- buffers.(b).Grid.data
              | None -> arr.(i) <- (List.assoc n aux).Grid.data)
          names;
        (arr, !refresh)
      end
    in
    {
      sx_name = sp.Plan.gs_name;
      sx_terms = terms;
      sx_aux_static = aux_static;
      sx_aux_source = !aux_source;
      sx_dst =
        (match sp.Plan.gs_buffer with Some b -> `Buffer b | None -> `Output);
      sx_tasks =
        Plan.extend_tasks ~shape ~ext:sp.Plan.gs_ext ~grow_low:all_true
          ~grow_high:all_true sp.Plan.gs_plan.Plan.tasks;
      sx_fused = fused;
      sx_fused_srcs =
        (if fused = None then [||] else Array.make (List.length terms) [||]);
      sx_fused_aux;
      sx_aux_refresh;
    }
  in
  let stages = Array.of_list (List.map build_stage gp.Plan.gp_stages) in
  let first_plan =
    match gp.Plan.gp_stages with
    | sp :: _ -> sp.Plan.gs_plan
    | [] -> assert false
  in
  let par =
    match first_plan.Plan.parallel with
    | Plan.Seq -> `Seq
    | Plan.Block _ -> `Block
    | Plan.Round_robin _ -> `Round_robin
  in
  if Msc_trace.enabled trace then begin
    Msc_trace.add ~tid trace "graph.stages"
      (float_of_int (Array.length stages));
    Msc_trace.add ~tid trace "graph.buffers"
      (float_of_int gp.Plan.gp_n_buffers)
  end;
  let on_worker =
    if Msc_trace.enabled trace then
      Some (fun w -> Msc_trace.attach_worker trace ~tid:w)
    else None
  in
  {
    stencil = (G.output_stage g).G.stencil;
    terms = [];
    window;
    aux;
    bc;
    cur = w - 1;
    steps_done = 0;
    tiles = stages.(Array.length stages - 1).sx_tasks;
    par;
    pool = config.Exec.Config.pool;
    fused = None;
    fused_srcs = [||];
    fused_aux = [||];
    tile_dispatches = 0;
    inline_dispatches = 0;
    sweep_memos = [];
    backend_report =
      {
        requested = backend;
        effective = (if !compiled_terms > 0 then backend else Backend.Interp);
        kernel_terms = !kernel_terms_total;
        compiled_terms = !compiled_terms;
        fused_sweeps = !fused_stages;
        tile_dispatches = 0;
        pool_inline_cutoff;
        inline_dispatches = 0;
        fallback = !fallback;
      };
    trace;
    tid;
    on_worker;
    points_per_step = float_of_int (Array.fold_left ( * ) 1 shape);
    graph = Some { gx_plan = gp; gx_buffers = buffers; gx_stages = stages };
  }

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

let tiles t = t.tiles
let aux_grids t = t.aux

(* Compiled kernels skip nothing the interpreter checks: every call is
   guarded by the same geometry/aliasing/range validation; only the sweep
   itself is the loaded code. *)
let term_accumulate t ~dst ~lo ~hi term =
  let src = state t ~dt:term.dt in
  match term.source with
  | From_kernel { interp; compiled = Some fn; jit_aux } ->
      Interp.check_grids interp ~src ~dst;
      Interp.check_range interp ~lo ~hi;
      fn Backend.wb_accumulate term.scale src.Grid.data dst.Grid.data jit_aux
        lo hi
  | From_kernel { interp; compiled = None; _ } ->
      Interp.accumulate_range ~aux:t.aux interp ~scale:term.scale ~src ~dst ~lo ~hi
  | From_state -> Interp.identity_accumulate_range ~scale:term.scale ~src ~dst ~lo ~hi

let term_write t ~dst ~lo ~hi term =
  let src = state t ~dt:term.dt in
  match term.source with
  | From_kernel { interp; compiled = Some fn; jit_aux } ->
      Interp.check_grids interp ~src ~dst;
      Interp.check_range interp ~lo ~hi;
      (* Mirror [Interp.apply_scaled_range]'s scale = 1 degrade to a plain
         overwrite. *)
      let wb =
        if term.scale = 1.0 then Backend.wb_apply else Backend.wb_apply_scaled
      in
      fn wb term.scale src.Grid.data dst.Grid.data jit_aux lo hi
  | From_kernel { interp; compiled = None; _ } ->
      Interp.apply_scaled_range ~aux:t.aux interp ~scale:term.scale ~src ~dst ~lo ~hi
  | From_state -> Interp.identity_apply_range ~scale:term.scale ~src ~dst ~lo ~hi

(* The first term overwrites the range, so a step needs no zero pass;
   later terms accumulate. *)
let compute_range_terms t ~dst ~lo ~hi =
  match t.terms with
  | first :: rest ->
      term_write t ~dst ~lo ~hi first;
      List.iter (term_accumulate t ~dst ~lo ~hi) rest
  | [] -> ()

let compute_range t ~dst ~lo ~hi =
  match t.fused with
  | Some fn ->
      (* The fused kernel performs no validation; guard every kernel term
         with the interpreter's own checks, exactly as the per-term path
         does. [fused_srcs] was refreshed by the dispatching sweep. *)
      List.iter
        (fun term ->
          match term.source with
          | From_kernel { interp; _ } ->
              Interp.check_grids interp ~src:(state t ~dt:term.dt) ~dst;
              Interp.check_range interp ~lo ~hi
          | From_state -> ())
        t.terms;
      fn t.fused_srcs dst.Grid.data t.fused_aux lo hi
  | None -> compute_range_terms t ~dst ~lo ~hi

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
let sweep_one ?tid t ~dst (lo, hi) =
  let ts0 = Msc_trace.begin_span t.trace in
  compute_range t ~dst ~lo ~hi;
  Msc_trace.end_span ?tid t.trace "sweep" ts0

(* Sweep an explicit task array into [dst] under the plan's parallel
   dispatch. Every cell's value depends only on the input window, so any
   partition of the interior into tasks — the plan's tiles, or their
   interior/shell split — produces bit-identical output in any order. *)
let sweep_tasks_into t ~dst tasks =
  let ntiles = Array.length tasks in
  t.tile_dispatches <- t.tile_dispatches + ntiles;
  (* Re-resolve each term's source array: the window rotated since the
     last sweep. Workers only read the refreshed array. *)
  if t.fused <> None then
    List.iteri
      (fun i term -> t.fused_srcs.(i) <- (state t ~dt:term.dt).Grid.data)
      t.terms;
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
  | `Inline (Some task) -> sweep_one ~tid:t.tid t ~dst task
  | `Inline None ->
      for id = 0 to ntiles - 1 do
        sweep_one ~tid:t.tid t ~dst tasks.(id)
      done
  | `Seq ->
      for id = 0 to ntiles - 1 do
        sweep_one ~tid:t.tid t ~dst tasks.(id)
      done
  | `Block ->
      Msc_util.Domain_pool.parallel_for ?on_worker:t.on_worker t.pool ~lo:0
        ~hi:ntiles (fun id -> sweep_one t ~dst tasks.(id))
  | `Round_robin ->
      Msc_util.Domain_pool.parallel_chunks ?on_worker:t.on_worker t.pool ~lo:0
        ~hi:ntiles (fun ~worker:_ id -> sweep_one t ~dst tasks.(id))

(* Sweeps write through, so the output slot needs no preparation. *)
let begin_step (_ : t) = ()

let sweep_tasks t tasks = sweep_tasks_into t ~dst:(output_slot t) tasks

let finish_step ?low ?high t =
  let dst = output_slot t in
  Msc_trace.add ~tid:t.tid t.trace "sweep.points" t.points_per_step;
  (* [low]/[high] restrict the boundary refresh to the masked faces (the
     distributed temporal engine applies BCs to physical faces only between
     substeps — a full pass would clobber the freshly recomputed halo
     extensions). All-false masks skip the walk entirely (periodic domains
     under temporal blocking have no physical face at all). *)
  let all_false = function Some m -> Array.for_all not m | None -> false in
  let ts_bc = Msc_trace.begin_span t.trace in
  if not (all_false low && all_false high) then Bc.apply ?low ?high t.bc dst;
  Msc_trace.end_span ~tid:t.tid t.trace "bc.apply" ts_bc;
  let ts_rot = Msc_trace.begin_span t.trace in
  t.cur <- (t.cur + 1) mod Array.length t.window;
  t.steps_done <- t.steps_done + 1;
  Msc_trace.end_span ~tid:t.tid t.trace "window.rotate" ts_rot

(* ------------------------------------------------------------------ *)
(* Graph stepping: sweep each stage in topological order over its
   extended tasks into its buffer (or the output slot), then finish the
   step exactly as the single-stencil path does — intermediates carry no
   BC, the output slot gets the full BC pass. *)

let graph_exec t =
  match t.graph with
  | Some gx -> gx
  | None -> invalid_arg "Runtime: not a graph runtime (use create_graph)"

let is_graph t = t.graph <> None

let stage_src t gx = function
  | G_state dt -> state t ~dt
  | G_buffer i -> gx.gx_buffers.(i)

let stage_dst t gx sx =
  match sx.sx_dst with
  | `Buffer i -> gx.gx_buffers.(i)
  | `Output -> output_slot t

let stage_aux t sx =
  match sx.sx_aux_source with
  | None -> sx.sx_aux_static
  | Some n -> (n, current t) :: sx.sx_aux_static

let gterm_write t gx ~aux ~dst ~lo ~hi gt =
  let src = stage_src t gx gt.g_src in
  match gt.g_kernel with
  | Some interp ->
      Interp.apply_scaled_range ~aux interp ~scale:gt.g_scale ~src ~dst ~lo ~hi
  | None -> Interp.identity_apply_range ~scale:gt.g_scale ~src ~dst ~lo ~hi

let gterm_accumulate t gx ~aux ~dst ~lo ~hi gt =
  let src = stage_src t gx gt.g_src in
  match gt.g_kernel with
  | Some interp ->
      Interp.accumulate_range ~aux interp ~scale:gt.g_scale ~src ~dst ~lo ~hi
  | None -> Interp.identity_accumulate_range ~scale:gt.g_scale ~src ~dst ~lo ~hi

let stage_compute_range t gx sx ~dst ~lo ~hi =
  match sx.sx_fused with
  | Some fn ->
      (* The fused kernel performs no validation; guard with the
         interpreter's own checks exactly as the single-stencil fused
         path does. [sx_fused_srcs]/refresh slots were refilled by the
         dispatching sweep. *)
      List.iter
        (fun gt ->
          match gt.g_kernel with
          | Some interp ->
              Interp.check_grids interp ~src:(stage_src t gx gt.g_src) ~dst;
              Interp.check_range interp ~lo ~hi
          | None -> ())
        sx.sx_terms;
      fn sx.sx_fused_srcs dst.Grid.data sx.sx_fused_aux lo hi
  | None -> (
      let aux = stage_aux t sx in
      match sx.sx_terms with
      | first :: rest ->
          gterm_write t gx ~aux ~dst ~lo ~hi first;
          List.iter (gterm_accumulate t gx ~aux ~dst ~lo ~hi) rest
      | [] -> ())

let stage_sweep_one ?tid t gx sx ~dst (lo, hi) =
  let ts0 = Msc_trace.begin_span t.trace in
  stage_compute_range t gx sx ~dst ~lo ~hi;
  Msc_trace.end_span ?tid t.trace "sweep" ts0

let sweep_stage_tasks t sx tasks =
  let gx = graph_exec t in
  let dst = stage_dst t gx sx in
  let ntiles = Array.length tasks in
  t.tile_dispatches <- t.tile_dispatches + ntiles;
  if sx.sx_fused <> None then begin
    List.iteri
      (fun i gt -> sx.sx_fused_srcs.(i) <- (stage_src t gx gt.g_src).Grid.data)
      sx.sx_terms;
    List.iter
      (fun i -> sx.sx_fused_aux.(i) <- (current t).Grid.data)
      sx.sx_aux_refresh
  end;
  (* Same inline cutoff as [sweep_tasks_into]: per-stage task arrays are
     often tiny (intermediates of a fused pipeline), so the pool overhead
     bites graph stepping hardest. *)
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
  | `Inline (Some task) -> stage_sweep_one ~tid:t.tid t gx sx ~dst task
  | `Inline None ->
      for id = 0 to ntiles - 1 do
        stage_sweep_one ~tid:t.tid t gx sx ~dst tasks.(id)
      done
  | `Seq ->
      for id = 0 to ntiles - 1 do
        stage_sweep_one ~tid:t.tid t gx sx ~dst tasks.(id)
      done
  | `Block ->
      Msc_util.Domain_pool.parallel_for ?on_worker:t.on_worker t.pool ~lo:0
        ~hi:ntiles (fun id -> stage_sweep_one t gx sx ~dst tasks.(id))
  | `Round_robin ->
      Msc_util.Domain_pool.parallel_chunks ?on_worker:t.on_worker t.pool ~lo:0
        ~hi:ntiles (fun ~worker:_ id -> stage_sweep_one t gx sx ~dst tasks.(id))

let graph_plan t = Option.map (fun gx -> gx.gx_plan) t.graph
let graph_stage_count t = Array.length (graph_exec t).gx_stages
let graph_stage_tasks t i = (graph_exec t).gx_stages.(i).sx_tasks

let sweep_graph_stage t i tasks =
  sweep_stage_tasks t (graph_exec t).gx_stages.(i) tasks

let step_graph t =
  let gx = graph_exec t in
  Array.iter (fun sx -> sweep_stage_tasks t sx sx.sx_tasks) gx.gx_stages;
  finish_step t

let step t =
  match t.graph with
  | Some _ -> step_graph t
  | None ->
      sweep_tasks t t.tiles;
      finish_step t

let run t n =
  for _ = 1 to n do
    step t
  done
