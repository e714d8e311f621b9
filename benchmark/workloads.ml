(* The four benchmark workloads, run inside one child process each.

   Every workload builds its programs through the public API of each
   layer (Plan, Pass, Jit via Runtime.create, Runtime/Grid/Bc,
   Domain_pool, Distributed/Halo/Mpi_sim, Reduction), steps them for a
   fixed wall-clock budget, and checks them against the Interp oracle.
   Why each workload exists is recorded in README.md. *)

open Msc
module Spans = Msc_bench.Spans
module Steps = Msc_bench.Steps

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  cache_root : string;  (** a fresh, empty directory owned by this process *)
}

(* The timeline the benchmark's own spans are recorded on; library spans
   use worker ids and ranks, which stay far below it. *)
let bench_tid = 10_000

(* Halo workload: one norm monitor every this many steps. *)
let monitor_every = 20

(* Oracle checks step every program this many times. *)
let check_steps = 5

(* Cap on trace events in the traced phase. *)
let event_budget = 400_000

(* ------------------------------------------------------------------ *)
(* Operation accounting: timed steps, reduce calls and oracle checks. *)

let attempted = ref 0
let failed = ref 0
let max_abs_diff = ref 0.0
let reduce_times = Steps.buf ()

let attempt ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "FAILED: %s\n%!" what
  end

(* ------------------------------------------------------------------ *)
(* Inputs *)

(* The initial field: a cheap integer hash of the seed and the global
   coordinate, uniform in [0, 1). Every past state starts from it. *)
let field seed coord =
  let h = ref ((seed * 0x2545F4914F6CDD1D) + 0x1E3779B97F4A7C15) in
  Array.iter
    (fun c ->
      h := (!h lxor c) * 0x1851F42D4C957F2D;
      h := !h lxor (!h lsr 29))
    coord;
  float_of_int (!h land 0xFFFFFF) /. 16777216.0

(* ------------------------------------------------------------------ *)
(* Programs *)

type prog = {
  label : string;  (** suite kernel or pipeline name *)
  points : float;  (** interior points updated per step *)
  flops : float;  (** flops per point *)
  bytes : float;
      (** computed compulsory bytes per point: each array the sweep reads
          or writes, once *)
  step : unit -> unit;  (** one step, with bench spans when traced *)
  reduce : Reduce.op -> float;  (** over the newest state *)
  dispatches : unit -> int * int;  (** cumulative (tile, inline) dispatches *)
  traffic : unit -> int * int;  (** cumulative (messages, bytes) sent *)
  pending : unit -> int;  (** messages sent but not received *)
}

type built = {
  progs : prog list;
  plan_s : float;
  pass_s : float;
  create_s : float;
  graphs : int;
  stages : int;
  buffers : int;
}

let span tr name t0 = Msc_trace.end_span ~tid:bench_tid tr name t0

let ok_exn what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)
let plan_bytes (p : Plan.t) = 8.0 *. float_of_int (p.Plan.n_state_streams + p.Plan.n_aux_streams + 1)

let runtime_prog ~config ~label ~flops ~bytes ~step rt =
  let executor =
    lazy (Reduction.create ~config ~tasks:(Runtime.tiles rt) (Runtime.current rt))
  in
  {
    label;
    points = float_of_int (Grid.interior_elems (Runtime.current rt));
    flops;
    bytes;
    step;
    reduce = (fun op -> Reduction.run (Lazy.force executor) ~op (Runtime.current rt));
    dispatches =
      (fun () ->
        let r = Runtime.backend_report rt in
        (r.Runtime.tile_dispatches, r.Runtime.inline_dispatches));
    traffic = (fun () -> (0, 0));
    pending = (fun () -> 0);
  }

(* Split stepping, so the sweep and the boundary pass each get a span. *)
let stencil_step tr rt () =
  let t0 = Msc_trace.begin_span tr in
  Runtime.begin_step rt;
  let t1 = Msc_trace.begin_span tr in
  Runtime.sweep_tasks rt (Runtime.tiles rt);
  span tr "bench.sweep" t1;
  let t2 = Msc_trace.begin_span tr in
  Runtime.finish_step rt;
  span tr "bench.finish" t2;
  span tr "bench.step" t0

let graph_step tr rt () =
  let t0 = Msc_trace.begin_span tr in
  Runtime.begin_step rt;
  for i = 0 to Runtime.graph_stage_count rt - 1 do
    let t1 = Msc_trace.begin_span tr in
    Runtime.sweep_graph_stage rt i (Runtime.graph_stage_tasks rt i);
    span tr "bench.sweep" t1
  done;
  let t2 = Msc_trace.begin_span tr in
  Runtime.finish_step rt;
  span tr "bench.finish" t2;
  span tr "bench.step" t0

let timed_reduce f =
  let v, dt = Probe.timed f in
  Steps.push reduce_times dt;
  v

(* A schedule with the workload's tile, clamped to the grid. *)
let schedule ~tile ~dims kernel =
  Schedule.matrix_canonical ~tile:(Array.map2 min tile dims) ~threads:2 kernel

let merge parts =
  let sum f = List.fold_left (fun acc b -> acc +. f b) 0.0 parts in
  let isum f = List.fold_left (fun acc b -> acc + f b) 0 parts in
  {
    progs = List.concat_map (fun b -> b.progs) parts;
    plan_s = sum (fun b -> b.plan_s);
    pass_s = sum (fun b -> b.pass_s);
    create_s = sum (fun b -> b.create_s);
    graphs = isum (fun b -> b.graphs);
    stages = isum (fun b -> b.stages);
    buffers = isum (fun b -> b.buffers);
  }

(* One single-stencil program: plan, then create (cold JIT, allocation,
   initialisation, first BC). *)
let build_stencil ~config ~seed ~tile ~dims tr (b : Suite.bench) =
  let st = Suite.stencil ~dims b in
  let sched = schedule ~tile ~dims (Suite.kernel_of st) in
  let plan, plan_s = Probe.timed (fun () -> Plan.compile st sched |> ok_exn "plan") in
  let rt, create_s =
    Probe.timed (fun () ->
        Runtime.create ~plan ~config ~init:(fun _ c -> field seed c) ~trace:tr st)
  in
  let prog =
    runtime_prog ~config ~label:b.Suite.name
      ~flops:(float_of_int (Stencil.flops_per_point st))
      ~bytes:(plan_bytes plan) ~step:(stencil_step tr rt) rt
  in
  { progs = [ prog ]; plan_s; pass_s = 0.0; create_s; graphs = 0; stages = 0; buffers = 0 }

(* One pipeline: default passes (Pipeline.of_graph), graph plan, create. *)
let build_pipeline ~config ~seed ~tile ~dims tr name =
  let raw = Suite.pipeline ~dims name in
  let sched = schedule ~tile ~dims (Suite.kernel_of (Graph.output_stage raw).Graph.stencil) in
  let p, pass_s =
    Probe.timed (fun () -> Pipeline.of_graph ~schedule:sched ~config ~trace:tr raw)
  in
  let gp, plan_s = Probe.timed (fun () -> Pipeline.graph_plan p |> ok_exn "graph plan") in
  let g = Option.get (Pipeline.graph p) in
  let rt, create_s =
    Probe.timed (fun () ->
        Runtime.create_graph ~graph_plan:gp ~config ~init:(fun _ c -> field seed c)
          ~trace:tr g)
  in
  let stage_sum f = List.fold_left (fun acc sp -> acc +. f sp) 0.0 gp.Plan.gp_stages in
  let prog =
    runtime_prog ~config ~label:name
      ~flops:(stage_sum (fun sp -> float_of_int (Stencil.flops_per_point sp.Plan.gs_stencil)))
      ~bytes:(stage_sum (fun sp -> plan_bytes sp.Plan.gs_plan))
      ~step:(graph_step tr rt) rt
  in
  {
    progs = [ prog ];
    plan_s;
    pass_s;
    create_s;
    graphs = 1;
    stages = List.length g.Graph.stages;
    buffers = gp.Plan.gp_n_buffers;
  }

(* The halo workload's program: Distributed.step, plus a norm monitor
   every [monitor_every] steps that lands in the same step sample. *)
let build_halo ~config ~seed ~dims ~ranks tr =
  let b = Suite.find "2d9pt_box" in
  let st = Suite.stencil ~dims b in
  let local = Array.map2 ( / ) dims ranks in
  let sched = schedule ~tile:local ~dims:local (Suite.kernel_of st) in
  (* Distributed lowers one plan per rank extent inside [create]; lowering
     the same rank-local plan here is what measures the Plan layer. *)
  let plan, plan_s =
    Probe.timed (fun () -> Plan.compile (Suite.stencil ~dims:local b) sched |> ok_exn "plan")
  in
  let d, create_s =
    Probe.timed (fun () ->
        Distributed.create ~config ~net:Netmodel.sunway_taihulight ~schedule:sched
          ~init:(field seed) ~trace:tr ~ranks_shape:ranks st)
  in
  let step () =
    let t0 = Msc_trace.begin_span tr in
    let t1 = Msc_trace.begin_span tr in
    Distributed.step d;
    span tr "bench.dist_step" t1;
    if Distributed.steps_done d mod monitor_every = 0 then begin
      let t2 = Msc_trace.begin_span tr in
      let v = timed_reduce (fun () -> Distributed.reduce d ~op:Reduce.Norm2) in
      span tr "bench.reduce" t2;
      attempt (Float.is_finite v) "halo_2d norm monitor"
    end;
    span tr "bench.step" t0
  in
  let ranks_n = Distributed.nranks d in
  let rank_sum f =
    let acc = ref (0, 0) in
    for rank = 0 to ranks_n - 1 do
      let a, b = f (Runtime.backend_report (Distributed.rank_runtime d ~rank)) in
      acc := (fst !acc + a, snd !acc + b)
    done;
    !acc
  in
  let mpi = Distributed.mpi d in
  let prog =
    {
      label = b.Suite.name;
      points = float_of_int (Array.fold_left ( * ) 1 dims);
      flops = float_of_int (Stencil.flops_per_point st);
      bytes = plan_bytes plan;
      step;
      reduce = (fun op -> Distributed.reduce d ~op);
      dispatches =
        (fun () ->
          rank_sum (fun r -> (r.Runtime.tile_dispatches, r.Runtime.inline_dispatches)));
      traffic = (fun () -> (Mpi.messages_sent mpi, Mpi.bytes_sent mpi));
      pending = (fun () -> Mpi.pending_messages mpi);
    }
  in
  { progs = [ prog ]; plan_s; pass_s = 0.0; create_s; graphs = 0; stages = 0; buffers = 0 }

(* ------------------------------------------------------------------ *)
(* Oracle checks *)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Bitwise comparison of two interiors; any difference or non-finite
   value is a failed check. *)
let compare_grids ~label (reference : Grid.t) (g : Grid.t) =
  let ok = ref true in
  Grid.iter_interior reference (fun c ->
      let x = Grid.get reference c and y = Grid.get g c in
      if not (same_bits x y && Float.is_finite y) then ok := false;
      let d = Float.abs (x -. y) in
      if not (d <= !max_abs_diff) then max_abs_diff := d);
  attempt !ok label

(* The compiled reduction against the interpreter's over the same tiles. *)
let compare_reductions ~config ~label ~tasks g =
  let run config = Reduction.run (Reduction.create ~config ~tasks g) ~op:Reduce.Sum g in
  attempt (same_bits (run Exec.Config.default) (run config)) (label ^ " reduction")

let check_stencil ~config ~seed ~tile ~dims (b : Suite.bench) =
  Gc.full_major ();
  let st = Suite.stencil ~dims b in
  let init _ c = field seed c in
  let compiled =
    Runtime.create ~schedule:(schedule ~tile ~dims (Suite.kernel_of st)) ~config ~init st
  in
  let oracle = Runtime.create ~init st in
  Runtime.run compiled check_steps;
  Runtime.run oracle check_steps;
  compare_grids ~label:b.Suite.name (Runtime.current oracle) (Runtime.current compiled);
  compare_reductions ~config ~label:b.Suite.name ~tasks:(Runtime.tiles compiled)
    (Runtime.current compiled)

(* The post-pass compiled pipeline against the unoptimised graph run
   stage by stage on the interpreter. *)
let check_pipeline ~config ~seed ~tile ~dims name =
  Gc.full_major ();
  let raw = Suite.pipeline ~dims name in
  let sched = schedule ~tile ~dims (Suite.kernel_of (Graph.output_stage raw).Graph.stencil) in
  let p = Pipeline.of_graph ~schedule:sched ~config raw in
  let init _ c = field seed c in
  let compiled =
    Runtime.create_graph
      ~graph_plan:(Pipeline.graph_plan p |> ok_exn "graph plan")
      ~config ~init (Option.get (Pipeline.graph p))
  in
  let oracle = Runtime.create_graph ~init raw in
  Runtime.run compiled check_steps;
  Runtime.run oracle check_steps;
  compare_grids ~label:name (Runtime.current oracle) (Runtime.current compiled)

(* The gathered distributed state against one interpreted grid. *)
let check_halo ~config ~seed ~dims ~ranks =
  Gc.full_major ();
  let st = Suite.stencil ~dims (Suite.find "2d9pt_box") in
  let local = Array.map2 ( / ) dims ranks in
  let d =
    Distributed.create ~config ~net:Netmodel.sunway_taihulight
      ~schedule:(schedule ~tile:local ~dims:local (Suite.kernel_of st))
      ~init:(field seed) ~ranks_shape:ranks st
  in
  let oracle = Runtime.create ~init:(fun _ c -> field seed c) st in
  Distributed.run d check_steps;
  Runtime.run oracle check_steps;
  compare_grids ~label:"halo_2d" (Runtime.current oracle) (Distributed.gather d)

(* ------------------------------------------------------------------ *)
(* Workload definitions *)

type workload = {
  name : string;
  setups : int;  (** cold set-ups per run; [setup_s] is their median *)
  build : Msc_trace.t -> built;
  check : unit -> unit;
  distributed : bool;
}

let names = [ "stream3d"; "suite_cold"; "halo_2d"; "pipeline_img" ]

let suite_dims ~smoke (b : Suite.bench) =
  match (b.Suite.ndim, smoke) with
  | 2, false -> [| 256; 256 |]
  | 2, true -> [| 32; 32 |]
  | _, false -> [| 48; 48; 48 |]
  | _, true -> [| 12; 12; 12 |]

let suite_tile (b : Suite.bench) =
  if b.Suite.ndim = 2 then [| 64; 256 |] else [| 8; 48; 48 |]

(* Smoke runs keep only the two cheapest kernels: the high-order box
   kernels take seconds each to compile. *)
let suite_benches ~smoke =
  if smoke then List.map Suite.find [ "2d9pt_star"; "3d7pt_star" ] else Suite.all

let find ~config (o : opts) name =
  let seed = o.seed and smoke = o.smoke in
  let setups n = if smoke then 1 else n in
  match name with
  | "stream3d" ->
      (* 3d7pt_star at the paper's 3-D size: each state array is 134 MB,
         larger than the last-level cache of the hosts this runs on. *)
      let b = Suite.find "3d7pt_star" in
      let dims = if smoke then [| 24; 24; 24 |] else [| 256; 256; 256 |] in
      let tile = [| 16; 32; 256 |] in
      {
        name;
        setups = setups 3;
        build = (fun tr -> build_stencil ~config ~seed ~tile ~dims tr b);
        check = (fun () -> check_stencil ~config ~seed ~tile ~dims:[| 24; 24; 24 |] b);
        distributed = false;
      }
  | "suite_cold" ->
      let benches = suite_benches ~smoke in
      {
        name;
        (* One cold set-up: compiling the suite takes most of a run. *)
        setups = 1;
        build =
          (fun tr ->
            merge
              (List.map
                 (fun b -> build_stencil ~config ~seed ~tile:(suite_tile b) ~dims:(suite_dims ~smoke b) tr b)
                 benches));
        check =
          (fun () ->
            List.iter
              (fun b ->
                check_stencil ~config ~seed ~tile:(suite_tile b) ~dims:(suite_dims ~smoke b) b)
              benches);
        distributed = false;
      }
  | "halo_2d" ->
      let dims = if smoke then [| 64; 64 |] else [| 512; 512 |] in
      let ranks = [| 8; 8 |] in
      {
        name;
        setups = setups 3;
        build = build_halo ~config ~seed ~dims ~ranks;
        check = (fun () -> check_halo ~config ~seed ~dims:[| 64; 64 |] ~ranks);
        distributed = true;
      }
  | "pipeline_img" ->
      let dims = if smoke then [| 64; 64 |] else [| 4096; 4096 |] in
      let tile = [| 64; 4096 |] in
      {
        name;
        setups = setups 3;
        build =
          (fun tr -> merge (List.map (build_pipeline ~config ~seed ~tile ~dims tr) Suite.pipeline_names));
        check =
          (fun () ->
            List.iter
              (check_pipeline ~config ~seed ~tile ~dims:[| 64; 64 |])
              Suite.pipeline_names);
        distributed = false;
      }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* ------------------------------------------------------------------ *)
(* Measurement *)

(* Programs take turns in [rounds] short slices, so a slow period of a
   shared host hits every program alike and each program's samples span
   the whole phase. Every program steps at least once per turn and at
   most [max_steps] times in all; returns each program's step times. *)
let rounds = 20

let timed_phase ?(max_steps = max_int) progs ~seconds =
  let runs = List.map (fun p -> (p, Steps.buf ())) progs in
  let slice = seconds /. float_of_int (rounds * List.length progs) in
  for _ = 1 to rounds do
    List.iter
      (fun (p, buf) ->
        let t = ref (Probe.now ()) in
        let t_end = !t +. slice in
        while buf.Steps.len < max_steps && !t < t_end do
          p.step ();
          let t' = Probe.now () in
          Steps.push buf (t' -. !t);
          attempt true p.label;
          t := t'
        done)
      runs
  done;
  List.map (fun (p, buf) -> (p, Steps.samples buf)) runs

let summary runs =
  Steps.combine (List.map (fun (p, secs) -> Steps.summarize ~points:p.points secs) runs)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }
let sum2 f progs = List.fold_left (fun (a, b) p -> let x, y = f p in (a + x, b + y)) (0, 0) progs

(* Per-layer numbers from the traced phase, one time window per program.
   Times are per traced step; on the halo workload span times are summed
   over ranks, which two workers run concurrently. *)
let layer_metrics ~(w : workload) ~events ~untraced ~runs =
  let spans_in (t0, t1) =
    List.filter_map
      (function
        | Msc_trace.Span { name; ts; dur; tid } when ts >= t0 && ts +. dur <= t1 ->
            Some { Spans.name; ts; dur; tid }
        | _ -> None)
      events
    |> Array.of_list
  in
  let per_prog = List.map (fun ((p, secs), win) -> (p, secs, spans_in win)) runs in
  let t = Spans.totals ~root_tid:bench_tid (Array.concat (List.map (fun (_, _, s) -> s) per_prog)) in
  let steps = float_of_int (List.fold_left (fun acc (_, s, _) -> acc + Array.length s) 0 per_prog) in
  let total name = (t name).Spans.total_s /. steps in
  let self name = (t name).Spans.self_s /. steps in
  let sweep_span = if w.distributed then "sweep" else "bench.sweep" in
  let sweep_s =
    List.map
      (fun (p, secs, spans) ->
        (p, float_of_int (Array.length secs), (Spans.totals ~root_tid:bench_tid spans sweep_span).Spans.total_s))
      per_prog
  in
  let sweep_total = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 sweep_s in
  let work f = List.fold_left (fun acc (p, n, _) -> acc +. (f p *. p.points *. n)) 0.0 sweep_s in
  let kernel_rate (b : Suite.bench) =
    List.fold_left
      (fun acc (p, n, s) ->
        if String.equal p.label b.Suite.name then p.points *. n /. s /. 1e6 else acc)
      0.0 sweep_s
  in
  let traced = summary (List.map (fun ((p, secs), _) -> (p, secs)) runs) in
  let events_in =
    List.length
      (List.filter
         (function
           | Msc_trace.Span { ts; _ } | Msc_trace.Counter { ts; _ } ->
               List.exists (fun (_, (t0, t1)) -> ts >= t0 && ts <= t1) runs)
         events)
  in
  let step_t = t "bench.step" in
  [
    m "sweep.s_per_step" "s/step" (sweep_total /. steps);
    m "sweep.gflops" "GFLOP/s" (work (fun p -> p.flops) /. sweep_total /. 1e9);
    m "sweep.flops_per_byte" "flop/B" (work (fun p -> p.flops) /. work (fun p -> p.bytes));
    m "sweep.computed_gbs" "GB/s" (work (fun p -> p.bytes) /. sweep_total /. 1e9);
    m "bc.s_per_step" "s/step" (total (if w.distributed then "bc.apply" else "bench.finish"));
    m "dispatch.s_per_step" "s/step" (self "bench.sweep");
    m "dist.step_s" "s/step" (total "bench.dist_step");
    m "dist.self_s_per_step" "s/step" (self "bench.dist_step");
    m "halo.pack_s_per_step" "s/step" (self "halo.pack");
    m "halo.wait_s_per_step" "s/step" (self "halo.exchange");
    m "halo.unpack_s_per_step" "s/step" (self "halo.unpack");
    m "halo.overlap_s_per_step" "s/step" (total "halo.overlap");
    m "halo.shell_s_per_step" "s/step" (total "halo.shell");
    m "trace.coverage_frac" "frac" (1.0 -. (step_t.Spans.self_s /. step_t.Spans.total_s));
    m "trace.overhead_frac" "frac" ((traced.Steps.p50_ms /. untraced.Steps.p50_ms) -. 1.0);
    m "trace.events" "count" (float_of_int events_in);
  ]
  @ List.map (fun b -> m ("sweep.mpts_per_s." ^ b.Suite.name) "Mpts/s" (kernel_rate b)) Suite.all

type setup_stat = { total_s : float; plan_s : float; pass_s : float; create_s : float }

(* One workload, start to finish: cold set-ups, a warm-up step and a
   checksum, the timed phase (half of it untraced and half traced when
   [o.trace]), and the oracle checks. Returns the end-to-end and, when
   traced, the per-layer metrics. *)
let run (o : opts) (w : workload) =
  (* Each set-up starts from an empty kernel cache and memo; only the last
     set-up's programs stay alive. *)
  let current = ref None in
  let jit0 = Jit.stats () in
  let stats =
    List.init w.setups (fun i ->
        current := None;
        Gc.full_major ();
        Unix.putenv "MSC_KERNEL_CACHE"
          (Filename.concat o.cache_root (Printf.sprintf "setup-%d" i));
        Jit.clear_memo ();
        let b, total_s = Probe.timed (fun () -> w.build Msc_trace.disabled) in
        current := Some b;
        { total_s; plan_s = b.plan_s; pass_s = b.pass_s; create_s = b.create_s })
  in
  let jit1 = Jit.stats () in
  let stat f = Stats.median (Array.of_list (List.map f stats)) in
  let graphs, stages, buffers =
    let b = Option.get !current in
    (b.graphs, b.stages, b.buffers)
  in
  let progs () = (Option.get !current).progs in
  (* A warm-up step, then a checksum every run at this seed reproduces.
     Its reduce calls compile the reduction kernels, so they are not
     timed. *)
  List.iter (fun p -> p.step ()) (progs ());
  let checksum =
    List.fold_left
      (fun acc p ->
        let v = p.reduce Reduce.Sum in
        attempt (Float.is_finite v) (p.label ^ " checksum");
        acc +. v)
      0.0 (progs ())
  in
  Printf.eprintf "%s: check.checksum = %h\n%!" w.name checksum;
  let seconds = if o.trace then o.seconds /. 2.0 else o.seconds in
  let untraced = summary (timed_phase (progs ()) ~seconds) in
  let final_check progs =
    List.iter
      (fun p ->
        let v = timed_reduce (fun () -> p.reduce Reduce.Max_abs) in
        attempt (Float.is_finite v) (p.label ^ " final state finite"))
      progs
  in
  let layers =
    if not o.trace then begin
      final_check (progs ());
      []
    end
    else begin
      current := None;
      Gc.full_major ();
      (* A warm re-create with the trace sink: every kernel is a memo hit,
         so its create time is allocation and initialisation alone. *)
      let tr = Msc_trace.create ~clock:Probe.now () in
      let b = w.build tr in
      current := Some b;
      let progs = b.progs and nprogs = List.length b.progs in
      List.iter (fun p -> p.step ()) progs;
      (* One traced step per program sizes the traced phase. *)
      let n0 = List.length (Msc_trace.events tr) in
      List.iter (fun p -> p.step ()) progs;
      let per_step = max 1 ((List.length (Msc_trace.events tr) - n0) / nprogs) in
      let max_steps = max 1 (event_budget / per_step / nprogs) in
      let d0 = sum2 (fun p -> p.dispatches ()) progs and m0 = sum2 (fun p -> p.traffic ()) progs in
      let runs =
        List.map
          (fun p ->
            let t0 = Msc_trace.begin_span tr in
            let r = timed_phase [ p ] ~seconds:(seconds /. float_of_int nprogs) ~max_steps in
            (List.hd r, (t0, Msc_trace.begin_span tr)))
          progs
      in
      let d1 = sum2 (fun p -> p.dispatches ()) progs and m1 = sum2 (fun p -> p.traffic ()) progs in
      let steps = float_of_int (List.fold_left (fun acc ((_, s), _) -> acc + Array.length s) 0 runs) in
      let per_step_delta a b = float_of_int (b - a) /. steps in
      let pending = List.fold_left (fun acc p -> acc + p.pending ()) 0 progs in
      final_check progs;
      let cold = stat (fun s -> s.create_s) and warm = b.create_s in
      let jit f = float_of_int (f jit1 - f jit0) /. float_of_int w.setups in
      layer_metrics ~w ~events:(Msc_trace.events tr) ~untraced ~runs
      @ [
          m "plan.compile_s" "s" (stat (fun s -> s.plan_s));
          m "pass.apply_s_per_graph" "s/graph"
            (if graphs = 0 then 0.0 else stat (fun s -> s.pass_s) /. float_of_int graphs);
          m "graph.stages" "count" (float_of_int stages);
          m "graph.buffers" "count" (float_of_int buffers);
          m "jit.compiles" "count" (jit (fun s -> s.Jit.compiles));
          m "jit.disk_hits" "count" (jit (fun s -> s.Jit.disk_hits));
          m "jit.memo_hits" "count" (jit (fun s -> s.Jit.memo_hits));
          m "jit.failures" "count"
            (jit (fun s -> s.Jit.failures_unsupported + s.Jit.failures_toolchain));
          m "jit.compile_s" "s" (cold -. warm);
          m "runtime.create_s" "s" cold;
          m "runtime.alloc_init_s" "s" warm;
          m "dispatch.tiles_per_step" "count" (per_step_delta (fst d0) (fst d1));
          m "dispatch.inline_per_step" "count" (per_step_delta (snd d0) (snd d1));
          m "mpi.messages_per_step" "count" (per_step_delta (fst m0) (fst m1));
          m "mpi.bytes_per_step" "B" (per_step_delta (snd m0) (snd m1));
          m "mpi.pending_after_step" "count" (float_of_int pending);
        ]
    end
  in
  current := None;
  w.check ();
  let e2e =
    [
      m "setup_s" "s" (stat (fun s -> s.total_s));
      m "mpts_per_s" "Mpts/s" untraced.Steps.mpts_per_s;
      m "step_ms_p50" "ms" untraced.Steps.p50_ms;
      m "step_ms_p90" "ms" untraced.Steps.p90_ms;
      m "peak_rss_mb" "MB" (Probe.peak_rss_mb ());
    ]
  in
  let common =
    [
      m "host.cores" "count" (float_of_int (Domain.recommended_domain_count ()));
      m "reduce.s_per_call" "s/call" (Stats.mean (Steps.samples reduce_times));
      m "check.max_abs_diff" "abs" !max_abs_diff;
      m "check.checksum" "value" checksum;
    ]
  in
  (e2e, if o.trace then layers @ common else [])
