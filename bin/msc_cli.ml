(* msc: command-line front door to the MSC stencil compiler.

   msc list                               - the benchmark suite
   msc gen -b 3d7pt_star -t sunway -o DIR - AOT code generation
   msc run -b 2d9pt_box -n 10 -w 8        - native execution
   msc solve -m cg --dims 64x64 --ranks 2x2 - matrix-free iterative solver
   msc verify -b 3d13pt_star -n 5         - optimized vs interpreter oracle
   msc verify unsharp_mask                - post-pass graph vs raw graph
   msc verify 2d9pt_star                  - same as verify -b 2d9pt_star
   msc simulate -b 3d7pt_star -p sunway   - processor performance model
   msc profile 3d7pt -o trace.json        - traced pipeline + chrome trace
   msc graph unsharp_mask --dot           - post-pass pipeline DAG (Graphviz)
   msc run-graph unsharp_mask -n 10       - multi-stage pipeline execution
   msc scale -b 2d9pt_box -p tianhe3 --tune - modeled scale-out efficiency
   msc experiment fig7                    - regenerate a paper artifact *)

open Cmdliner

let bench_conv =
  let parse s =
    match Msc.Suite.find s with
    | b -> Ok b
    | exception Not_found ->
        Error
          (`Msg
            (Printf.sprintf "unknown benchmark %S (try: %s)" s
               (String.concat ", "
                  (List.map (fun b -> b.Msc.Suite.name) Msc.Suite.all))))
  in
  let print ppf b = Format.pp_print_string ppf b.Msc.Suite.name in
  Arg.conv (parse, print)

let bench_arg =
  Arg.(
    required
    & opt (some bench_conv) None
    & info [ "b"; "bench" ] ~docv:"NAME" ~doc:"Benchmark from the Table 4 suite.")

let pipeline_conv =
  let parse s =
    match Msc.Suite.pipeline s with
    | _ -> Ok s
    | exception Not_found ->
        Error
          (`Msg
            (Printf.sprintf "unknown pipeline %S (try: %s)" s
               (String.concat ", " Msc.Suite.pipeline_names)))
  in
  Arg.conv (parse, Format.pp_print_string)

let pipeline_doc =
  "Pipeline graph from the suite (unsharp_mask | harris_corner; any \
   unambiguous prefix works)."

let pipeline_arg =
  Arg.(required & pos 0 (some pipeline_conv) None & info [] ~docv:"PIPELINE" ~doc:pipeline_doc)

(* Where each stage of [raw] went under the passes that made [g]: inlined
   into a later stage, or tile-local in one of the plan's window slots,
   with the bytes every worker's windows take together. *)
let print_placements ~raw (g : Msc.Graph.t) (gp : Msc.Plan.graph_plan) =
  let kb = (Msc.Runtime.window_bytes gp + 1023) / 1024 in
  let slot name =
    List.find_map
      (fun (sp : Msc.Plan.graph_stage_plan) ->
        if String.equal sp.Msc.Plan.gs_name name then sp.Msc.Plan.gs_buffer else None)
      gp.Msc.Plan.gp_stages
  in
  List.iter
    (fun (name, placement) ->
      Printf.printf "  %s: %s\n" name
        (match placement with
        | Msc.Pass.Output -> "output"
        | Msc.Pass.Inlined x -> "inlined into " ^ x
        | Msc.Pass.Tile_local ->
            Printf.sprintf "tile-local (slot %d of %d, %d KB/worker)"
              (Option.value ~default:0 (slot name)) gp.Msc.Plan.gp_n_buffers kb
        | Msc.Pass.Dead -> "dead (dropped)"))
    (Msc.Pass.placements ~raw g)

let target_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Msc.Codegen.target_of_string s) in
  let print ppf t = Format.pp_print_string ppf (Msc.Codegen.target_to_string t) in
  Arg.conv (parse, print)

let steps_arg default =
  Arg.(value & opt int default & info [ "n"; "steps" ] ~docv:"N" ~doc:"Timesteps.")

let backend_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Msc.Backend.of_string s) in
  Arg.conv (parse, Msc.Backend.pp)

let backend_arg =
  Arg.(
    value
    & opt backend_conv Msc.Backend.Interp
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Kernel backend: interp | compiled_c. compiled_c emits and \
           compiles one fused whole-sweep C kernel per plan at runtime and \
           falls back to the interpreter when no toolchain is found or the \
           kernel cannot be emitted.")

let pp_backend_report ppf (r : Msc.Runtime.backend_report) =
  Format.fprintf ppf
    "backend: requested %a, ran %a (%d/%d kernel terms compiled, %s; %d tile \
     dispatches, %d sweeps inlined below the %d-point pool cutoff)"
    Msc.Backend.pp r.Msc.Runtime.requested Msc.Backend.pp r.Msc.Runtime.effective
    r.Msc.Runtime.compiled_terms r.Msc.Runtime.kernel_terms
    (if r.Msc.Runtime.fused_sweeps > 0 then "fused sweep" else "interpreted")
    r.Msc.Runtime.tile_dispatches r.Msc.Runtime.inline_dispatches
    r.Msc.Runtime.pool_inline_cutoff;
  match r.Msc.Runtime.fallback with
  | Some reason -> Format.fprintf ppf "@.backend fallback: %s" reason
  | None -> ()

(* The pool is caller-owned under [Exec.Config]; shut it down when the
   command finishes rather than leaving parked domains to the GC backstop. *)
let with_config ?backend ?depth ~workers f =
  let pool =
    if workers < 2 then Msc.Domain_pool.sequential
    else Msc.Domain_pool.create workers
  in
  Fun.protect
    ~finally:(fun () -> Msc.Domain_pool.shutdown pool)
    (fun () -> f (Msc.Exec.Config.make ?backend ?depth ~pool ()))

let small_arg =
  Arg.(
    value & flag
    & info [ "small" ] ~doc:"Use a reduced grid instead of the paper's evaluation size.")

let dims_of b small =
  if small then
    match b.Msc.Suite.ndim with 2 -> [| 96; 96 |] | _ -> [| 32; 32; 32 |]
  else Msc.Suite.default_dims b

let list_cmd =
  let run () =
    List.iter
      (fun b ->
        Printf.printf "%-14s %dD %-4s radius %d  read %4d B  ops %3d  time-dep %d\n"
          b.Msc.Suite.name b.Msc.Suite.ndim
          (Format.asprintf "%a" Msc.Shapes.pp_shape b.Msc.Suite.shape)
          b.Msc.Suite.radius b.Msc.Suite.paper_read_bytes b.Msc.Suite.paper_ops
          b.Msc.Suite.time_dep)
      Msc.Suite.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark suite.") Term.(const run $ const ())

let gen_cmd =
  let target =
    Arg.(
      value
      & opt target_conv Msc.Codegen.Athread
      & info [ "t"; "target" ] ~docv:"TARGET" ~doc:"cpu | openmp/matrix | sunway/athread.")
  in
  let out =
    Arg.(
      value & opt string "_msc_generated"
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run b target out steps small backend =
    let st = Msc.Suite.stencil ~dims:(dims_of b small) b in
    let config = Msc.Exec.Config.make ~backend () in
    let p = Msc.Pipeline.make ~stencil:st ~config () in
    match Msc.Pipeline.compile ~steps ~target p with
    | Ok files ->
        let dir = Filename.concat out b.Msc.Suite.name in
        Msc.Codegen.write_files ~dir files;
        List.iter (fun f -> Printf.printf "wrote %s/%s\n" dir f.Msc.Codegen.name) files;
        0
    | Error msg ->
        prerr_endline msg;
        1
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate AOT C code for a benchmark.")
    Term.(
      const run $ bench_arg $ target $ out $ steps_arg 10 $ small_arg
      $ backend_arg)

let run_cmd =
  let workers =
    Arg.(value & opt int 1 & info [ "w"; "workers" ] ~docv:"W" ~doc:"Worker domains.")
  in
  let run b steps workers backend small =
    let st = Msc.Suite.stencil ~dims:(dims_of b small) b in
    let kernel = Msc.Suite.kernel_of st in
    let tile =
      Array.mapi
        (fun d t -> min t st.Msc.Stencil.grid.Msc.Tensor.shape.(d))
        (Msc.Schedule.default_tile kernel)
    in
    let schedule = Msc.Schedule.cpu_canonical ~tile ~threads:workers kernel in
    with_config ~backend ~workers (fun config ->
        let p = Msc.Pipeline.make ~stencil:st ~schedule ~config () in
        let t0 = Sys.time () in
        let final, report = Msc.Pipeline.run_report ~steps p in
        Format.printf "%a@.%a@.cpu time: %.2fs for %d steps@." Msc.Grid.pp_stats
          final pp_backend_report report (Sys.time () -. t0) steps;
        0)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a benchmark natively.")
    Term.(
      const run $ bench_arg $ steps_arg 10 $ workers $ backend_arg $ small_arg)

(* ---- Matrix-free solvers ---- *)

let ints_conv what =
  let parse s =
    let parts =
      String.split_on_char 'x' (String.concat "x" (String.split_on_char ',' s))
    in
    match List.map int_of_string_opt parts with
    | ints when List.for_all Option.is_some ints && ints <> [] ->
        Ok (Array.of_list (List.map Option.get ints))
    | _ | (exception _) ->
        Error (`Msg (Printf.sprintf "bad %s %S (use e.g. 64x64)" what s))
  in
  let print ppf a =
    Format.pp_print_string ppf
      (String.concat "x" (List.map string_of_int (Array.to_list a)))
  in
  Arg.conv (parse, print)

let solve_cmd =
  let method_conv =
    let parse s =
      match Msc.Solver.method_of_string s with
      | Some m -> Ok m
      | None ->
          Error (`Msg (Printf.sprintf "unknown method %S (jacobi | rbgs | cg)" s))
    in
    let print ppf m = Format.pp_print_string ppf (Msc.Solver.method_to_string m) in
    Arg.conv (parse, print)
  in
  let method_arg =
    Arg.(
      value
      & opt method_conv Msc.Solver.Cg
      & info [ "m"; "method" ] ~docv:"M" ~doc:"Solver: jacobi | rbgs | cg.")
  in
  let dims_arg =
    Arg.(
      value
      & opt (ints_conv "dims") [| 64; 64 |]
      & info [ "dims" ] ~docv:"DIMS" ~doc:"Global grid extents, e.g. 64x64 or 32x32x32.")
  in
  let ranks_arg =
    Arg.(
      value
      & opt (some (ints_conv "ranks")) None
      & info [ "ranks" ] ~docv:"RxC"
          ~doc:"Simulated MPI process grid, e.g. 2x2 (default: one rank).")
  in
  let tol_arg =
    Arg.(
      value & opt float 1e-8
      & info [ "tol" ] ~docv:"T" ~doc:"Relative residual tolerance.")
  in
  let max_iters_arg =
    Arg.(
      value & opt int 2000
      & info [ "max-iters" ] ~docv:"N" ~doc:"Iteration cap.")
  in
  let omega_arg =
    Arg.(
      value & opt float 1.0
      & info [ "omega" ] ~docv:"W" ~doc:"Jacobi damping factor in (0, 1].")
  in
  let depth_arg =
    Arg.(
      value & opt int 1
      & info [ "depth" ] ~docv:"D"
          ~doc:
            "Temporal depth of the distributed stepping protocol (one halo \
             exchange per D steps). Jacobi runs at any depth; cg/rbgs clamp \
             the operator to depth 1 (reported).")
  in
  let residuals_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "residuals-out" ] ~docv:"FILE"
          ~doc:"Write the per-iteration residual trace as CSV.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI leg: run every method at depths 1 and 2 over a small 2x2-rank \
             Poisson problem and fail unless all converge with bit-identical \
             residual sequences across depths.")
  in
  let write_residuals file rows =
    let oc = open_out file in
    output_string oc "method,depth,iteration,residual\n";
    List.iter
      (fun (m, depth, r : Msc.Solver.method_ * int * Msc.Solver.report) ->
        Array.iteri
          (fun i res ->
            Printf.fprintf oc "%s,%d,%d,%.17g\n"
              (Msc.Solver.method_to_string m)
              depth i res)
          r.Msc.Solver.residuals)
      rows;
    close_out oc;
    Printf.printf "wrote %s\n" file
  in
  let run method_ dims ranks tol max_iters omega depth backend workers
      residuals_out smoke =
    if smoke then begin
      (* Small enough to finish in seconds, large enough that every rank of
         the 2x2 grid holds interior and shell tiles. *)
      let p = Msc.Solver.Problem.poisson ~dims:[| 17; 19 |] in
      let rows = ref [] in
      let ok = ref true in
      List.iter
        (fun m ->
          let reference = ref None in
          List.iter
            (fun depth ->
              let r =
                Msc.Solver.solve
                  ~config:(Msc.Exec.Config.make ~backend ~depth ())
                  ~ranks_shape:[| 2; 2 |] ~tol:1e-6 ~method_:m p
              in
              Format.printf "%a@." Msc.Solver.pp_report r;
              rows := (m, depth, r) :: !rows;
              if not r.Msc.Solver.converged then begin
                Printf.eprintf "FAIL: %s did not converge at depth %d\n"
                  (Msc.Solver.method_to_string m)
                  depth;
                ok := false
              end;
              match !reference with
              | None -> reference := Some r.Msc.Solver.residuals
              | Some ref_res ->
                  if r.Msc.Solver.residuals <> ref_res then begin
                    Printf.eprintf
                      "FAIL: %s residuals at depth %d differ from depth 1 \
                       (bit-identity broken)\n"
                      (Msc.Solver.method_to_string m)
                      depth;
                    ok := false
                  end)
            [ 1; 2 ])
        Msc.Solver.all_methods;
      Option.iter (fun f -> write_residuals f (List.rev !rows)) residuals_out;
      if !ok then begin
        print_endline
          "solver smoke: every method converged at depths 1 and 2, residual \
           sequences bit-identical";
        0
      end
      else 1
    end
    else
      let p = Msc.Solver.Problem.poisson ~dims in
      with_config ~backend ~depth ~workers (fun config ->
          match
            Msc.Solver.solve ~config ~tol ~max_iters ~omega ?ranks_shape:ranks
              ~method_ p
          with
          | r ->
              Format.printf "%a@." Msc.Solver.pp_report r;
              Option.iter
                (fun f -> write_residuals f [ (method_, depth, r) ])
                residuals_out;
              if r.Msc.Solver.converged then 0 else 1
          | exception Invalid_argument msg ->
              prerr_endline msg;
              1)
  in
  let workers =
    Arg.(value & opt int 1 & info [ "w"; "workers" ] ~docv:"W" ~doc:"Worker domains.")
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Solve the Poisson model problem with a matrix-free iterative \
          solver whose operator is an MSC stencil (distributed, with real \
          halo exchanges and allreduce collectives).")
    Term.(
      const run $ method_arg $ dims_arg $ ranks_arg $ tol_arg $ max_iters_arg
      $ omega_arg $ depth_arg $ backend_arg $ workers $ residuals_out_arg
      $ smoke_arg)

(* A suite pipeline: the post-pass graph, tiled over two workers on
   [backend], against the raw graph on the interpreter (untiled,
   sequential), bit for bit over the whole padded state. *)
let verify_pipeline name steps backend small =
  let dims = if small then [| 96; 96 |] else Msc.Suite.default_pipeline_dims in
  let raw = Msc.Suite.pipeline ~dims name in
  let oracle = Msc.Runtime.create_graph raw in
  Msc.Runtime.run oracle steps;
  let g = Msc.Pass.apply Msc.Pass.default_pipeline raw in
  let kernel = Msc.Suite.kernel_of (Msc.Graph.output_stage raw).Msc.Graph.stencil in
  let tile = Array.map2 min (Msc.Schedule.default_tile kernel) dims in
  let schedule = Msc.Schedule.cpu_canonical ~tile ~threads:2 kernel in
  with_config ~backend ~workers:2 (fun config ->
      let rt = Msc.Runtime.create_graph ~schedule ~config g in
      Msc.Runtime.run rt steps;
      let a = (Msc.Runtime.current oracle).Msc.Grid.data in
      let b = (Msc.Runtime.current rt).Msc.Grid.data in
      let mismatches = ref 0 in
      Array.iteri
        (fun i x ->
          if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i))) then
            incr mismatches)
        a;
      Printf.printf
        "verify %s: post-pass graph (%d stages, %s, 2 workers) vs raw graph \
         (%d stages, interp), %d steps at %dx%d: %s\n"
        name (List.length g.Msc.Graph.stages)
        (Msc.Backend.to_string (Msc.Runtime.backend_report rt).Msc.Runtime.effective)
        (List.length raw.Msc.Graph.stages) steps dims.(0) dims.(1)
        (if !mismatches = 0 then "PASS (bit-identical)"
         else Printf.sprintf "FAIL (%d cells differ)" !mismatches);
      if !mismatches = 0 then 0 else 1)

(* A Table-4 benchmark: the tiled runtime on [backend] against the
   interpreter oracle. *)
let verify_bench b steps backend small =
  let st = Msc.Suite.stencil ~dims:(dims_of b small) b in
  let kernel = Msc.Suite.kernel_of st in
  let tile =
    Array.mapi
      (fun d t -> min t st.Msc.Stencil.grid.Msc.Tensor.shape.(d))
      (Msc.Schedule.default_tile kernel)
  in
  let schedule = Msc.Schedule.cpu_canonical ~tile ~threads:4 kernel in
  let config = Msc.Exec.Config.make ~backend () in
  let p = Msc.Pipeline.make ~stencil:st ~schedule ~config () in
  let report = Msc.Pipeline.verify ~steps p in
  Format.printf "%a@." Msc.Verify.pp_report report;
  if report.Msc.Verify.ok then 0 else 1

(* [verify]'s positional NAME: a suite pipeline, or a Table-4 benchmark
   run as [-b NAME] runs it. *)
let verify_target_conv =
  let parse s =
    match Msc.Suite.find s with
    | b -> Ok (`Bench b)
    | exception Not_found -> (
        match Msc.Suite.pipeline s with
        | _ -> Ok (`Pipeline s)
        | exception Not_found ->
            Error
              (`Msg
                (Printf.sprintf "unknown pipeline or benchmark %S (try: %s)" s
                   (String.concat ", "
                      (Msc.Suite.pipeline_names
                      @ List.map (fun b -> b.Msc.Suite.name) Msc.Suite.all)))))
  in
  let print ppf = function
    | `Bench b -> Format.pp_print_string ppf b.Msc.Suite.name
    | `Pipeline name -> Format.pp_print_string ppf name
  in
  Arg.conv (parse, print)

let verify_cmd =
  let run b target steps backend small =
    match (b, target) with
    | None, Some (`Pipeline name) -> verify_pipeline name steps backend small
    | Some b, None | None, Some (`Bench b) -> verify_bench b steps backend small
    | Some _, Some _ | None, None ->
        prerr_endline "verify: give exactly one of -b BENCH or a NAME";
        1
  in
  (* Verification runs real computation twice; default to the small grid. *)
  let small_default =
    Arg.(
      value & opt bool true
      & info [ "small" ] ~docv:"BOOL" ~doc:"Use a reduced grid (default true).")
  in
  let bench =
    Arg.(
      value
      & opt (some bench_conv) None
      & info [ "b"; "bench" ] ~docv:"NAME" ~doc:"Benchmark from the Table 4 suite.")
  in
  let target =
    Arg.(
      value
      & pos 0 (some verify_target_conv) None
      & info [] ~docv:"NAME"
          ~doc:(pipeline_doc ^ " A Table-4 benchmark name runs as $(b,-b) NAME does."))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check the optimized runtime (tiled, on the chosen backend) \
             against the naive serial one (tree interpreter, untiled, \
             sequential): a Table-4 benchmark ($(b,-b) or NAME), or a suite \
             pipeline's post-pass graph against its raw graph, bit for bit \
             (exit 1 on a mismatch).")
    Term.(const run $ bench $ target $ steps_arg 5 $ backend_arg $ small_default)

let simulate_cmd =
  let platform =
    Arg.(
      value
      & opt (enum [ ("sunway", Msc.Codegen.Athread); ("matrix", Msc.Codegen.Openmp) ])
          Msc.Codegen.Athread
      & info [ "p"; "platform" ] ~docv:"P" ~doc:"sunway | matrix.")
  in
  let run b target =
    let st = Msc.Suite.stencil b in
    let kernel = Msc.Suite.kernel_of st in
    let schedule =
      match (target : Msc.Codegen.target) with
      | Msc.Codegen.Athread ->
          Msc.Schedule.sunway_canonical ~tile:(Msc_benchsuite.Settings.sunway_tile b)
            kernel
      | _ ->
          Msc.Schedule.matrix_canonical ~tile:(Msc_benchsuite.Settings.matrix_tile b)
            kernel
    in
    let p = Msc.Pipeline.make ~stencil:st ~schedule () in
    match Msc.Pipeline.simulate ~target p with
    | Ok (Msc.Pipeline.Sunway_report r) ->
        Format.printf "%a@." Msc.Sunway.pp_report r;
        0
    | Ok (Msc.Pipeline.Matrix_report r) ->
        Format.printf "%a@." Msc.Matrix.pp_report r;
        0
    | Error msg ->
        prerr_endline msg;
        1
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Predict performance on a many-core processor.")
    Term.(const run $ bench_arg $ platform)

let profile_cmd =
  let bench_pos =
    Arg.(
      required
      & pos 0 (some bench_conv) None
      & info [] ~docv:"BENCH" ~doc:"Benchmark (any unambiguous prefix works).")
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Chrome-trace output file.")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "w"; "workers" ] ~docv:"W" ~doc:"Worker domains.")
  in
  let run b steps workers backend out =
    let trace = Msc.Trace.create () in
    let st = Msc.Suite.stencil ~dims:(dims_of b true) b in
    with_config ~backend ~workers (fun config ->
    let p = Msc.Pipeline.make ~stencil:st ~config ~trace () in
    (* Native run: sweep / bc / window phases, per-worker spans; report
       which kernel backend actually executed. *)
    let _, backend_report = Msc.Pipeline.run_report ~steps p in
    Format.printf "%a@." pp_backend_report backend_report;
    (* Distributed run: halo pack / exchange / unpack per rank. *)
    let ranks_shape =
      Array.init b.Msc.Suite.ndim (fun d -> if d < 2 then 2 else 1)
    in
    let dist = Msc.Pipeline.distribute ~ranks_shape p in
    Msc.Distributed.run dist steps;
    (* Processor model: simulated DMA / compute phases. *)
    (match Msc.Pipeline.simulate ~steps ~target:Msc.Codegen.Athread p with
    | Ok _ -> ()
    | Error msg -> Printf.eprintf "(sunway model skipped: %s)\n" msg);
    let oc = open_out out in
    output_string oc (Msc.Trace.to_chrome_json trace);
    close_out oc;
    Printf.printf "%d events -> %s (load in about:tracing or Perfetto)\n\n"
      (List.length (Msc.Trace.events trace))
      out;
    print_string (Msc.Trace.report trace);
    (* Sweep throughput, derived from the trace itself: the runtime bumps
       the "sweep.points" counter once per step and wraps every tile sweep
       in a "sweep" span, so counter-sum / span-total is per-core
       points-per-second across all traced runs. *)
    (let sweep_phase =
       List.find_opt
         (fun p -> p.Msc.Trace.phase = "sweep")
         (Msc.Trace.phases trace)
     and sweep_points =
       List.find_opt
         (fun c -> c.Msc.Trace.counter = "sweep.points")
         (Msc.Trace.totals trace)
     in
     match (sweep_phase, sweep_points) with
     | Some p, Some c when p.Msc.Trace.total_s > 0.0 ->
         Printf.printf
           "\nsweep throughput: %s points/s per core (%s points / %s of sweep \
            spans)\n"
           (Msc.Units_fmt.count (c.Msc.Trace.sum /. p.Msc.Trace.total_s))
           (Msc.Units_fmt.count c.Msc.Trace.sum)
           (Msc.Units_fmt.seconds p.Msc.Trace.total_s)
     | _ -> ());
    0)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a benchmark through the native, distributed and simulated \
          pipeline stages with tracing on; write a chrome trace and print \
          the per-phase summary.")
    Term.(
      const run $ bench_pos $ steps_arg 5 $ workers $ backend_arg $ out)

(* ---- Pipeline graphs ---- *)

let graph_cmd =
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ] ~doc:"Print the DAG in Graphviz DOT format.")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Dump the graph as written, skipping the optimization passes \
             (dead-stage elimination, fusion, shared-halo merging).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  let run name dot raw out =
    let g0 = Msc.Suite.pipeline name in
    let g = if raw then g0 else Msc.Pass.apply Msc.Pass.default_pipeline g0 in
    let text =
      if dot then Msc.Graph.to_dot g else Format.asprintf "%a@." Msc.Graph.pp g
    in
    (match out with
    | Some file ->
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        Printf.printf "wrote %s\n" file
    | None -> print_string text);
    (if not dot then
       match Msc.Plan.compile_graph g Msc.Schedule.empty with
       | Ok gp -> print_placements ~raw:g0 g gp
       | Error msg -> Printf.eprintf "plan: %s\n" msg);
    0
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Inspect a pipeline graph (post-pass by default: dead stages \
          dropped, single-consumer chains fused, shared halo merged).")
    Term.(const run $ pipeline_arg $ dot $ raw $ out)

let run_graph_cmd =
  let workers =
    Arg.(value & opt int 1 & info [ "w"; "workers" ] ~docv:"W" ~doc:"Worker domains.")
  in
  let no_passes =
    Arg.(
      value & flag
      & info [ "no-passes" ]
          ~doc:
            "Execute the graph as written — every stage but the output \
             tile-local, computed per task into a per-worker window — \
             instead of the pass-optimized schedule.")
  in
  let run name steps workers backend small no_passes =
    let dims = if small then [| 96; 96 |] else Msc.Suite.default_pipeline_dims in
    let g0 = Msc.Suite.pipeline ~dims name in
    with_config ~backend ~workers (fun config ->
        let passes = if no_passes then [] else Msc.Pass.default_pipeline in
        let p = Msc.Pipeline.of_graph ~passes ~config g0 in
        let g = Option.get (Msc.Pipeline.graph p) in
        (match Msc.Pipeline.graph_plan p with
        | Ok gp ->
            Printf.printf
              "stages: %d -> %d  exchanges/step: %d (naive %d)  halo: %d  \
               merged: %b\n"
              (List.length g0.Msc.Graph.stages)
              (List.length g.Msc.Graph.stages)
              gp.Msc.Plan.gp_exchanges_per_step
              gp.Msc.Plan.gp_naive_exchanges_per_step gp.Msc.Plan.gp_halo.(0)
              gp.Msc.Plan.gp_merged;
            print_placements ~raw:g0 g gp
        | Error msg -> Printf.eprintf "plan: %s\n" msg);
        let t0 = Sys.time () in
        let final, report = Msc.Pipeline.run_report ~steps p in
        Format.printf "%a@.%a@.cpu time: %.2fs for %d steps@." Msc.Grid.pp_stats
          final pp_backend_report report (Sys.time () -. t0) steps;
        0)
  in
  Cmd.v
    (Cmd.info "run-graph"
       ~doc:
         "Execute a multi-stage pipeline graph natively (passes applied \
          first: producers inlined or run tile-local).")
    Term.(
      const run $ pipeline_arg $ steps_arg 10 $ workers $ backend_arg
      $ small_arg $ no_passes)

(* ---- Scale-out modeling ---- *)

let scale_cmd =
  let platform_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("sunway", Msc.Scaling.Sunway); ("tianhe3", Msc.Scaling.Tianhe3);
             ])
          Msc.Scaling.Sunway
      & info [ "p"; "platform" ] ~docv:"P" ~doc:"sunway | tianhe3.")
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("strong", `Strong); ("weak", `Weak) ]) `Weak
      & info [ "mode" ] ~docv:"M"
          ~doc:
            "strong (fixed global grid split across ranks) | weak (fixed \
             per-rank grid, global grows with the ladder).")
  in
  let base_arg =
    Arg.(
      value
      & opt (ints_conv "base") [| 512; 512 |]
      & info [ "base" ] ~docv:"DIMS"
          ~doc:
            "Base grid extents, e.g. 512x512: the global grid under strong \
             scaling, the per-rank sub-grid under weak scaling.")
  in
  let ladder_arg =
    Arg.(
      value
      & opt (list int) [ 4; 16; 64; 256; 1024 ]
      & info [ "ranks" ] ~docv:"R1,R2,..."
          ~doc:
            "Simulated rank ladder; the first rung is the efficiency \
             baseline.")
  in
  let depth_arg =
    Arg.(
      value & opt int 1
      & info [ "depth" ] ~docv:"D"
          ~doc:
            "Temporal-blocking depth (capped per rung by the sub-grid \
             geometry).")
  in
  let rpn_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "ranks-per-node"; "rpn" ] ~docv:"N"
          ~doc:
            "Ranks sharing one physical node in the hierarchical cost model \
             (default: the platform's — 4 on Sunway, 8 on Tianhe-3; 1 \
             disables the hierarchy).")
  in
  let tune_arg =
    Arg.(
      value & flag
      & info [ "tune" ]
          ~doc:
            "Also run the scale-out tuner at the last rung: exhaustive \
             rank-grid x temporal-depth search, best five candidates \
             printed.")
  in
  let dims_str a =
    String.concat "x" (List.map string_of_int (Array.to_list a))
  in
  let run b platform mode base ladder depth rpn tune =
    let make_stencil dims = Msc.Suite.stencil ~dims b in
    match
      Msc.Scaling.efficiency_curve ~depth ?ranks_per_node:rpn platform
        ~make_stencil ~mode ~base ~ladder
    with
    | exception Invalid_argument msg ->
        prerr_endline msg;
        1
    | [] ->
        prerr_endline "empty rank ladder";
        1
    | points ->
        let pname =
          match platform with
          | Msc.Scaling.Sunway -> "sunway"
          | Msc.Scaling.Tianhe3 -> "tianhe3"
        in
        let rows =
          List.map
            (fun (p : Msc.Scaling.eff_point) ->
              [
                string_of_int p.Msc.Scaling.e_ranks;
                dims_str p.Msc.Scaling.e_grid;
                dims_str p.Msc.Scaling.e_sub;
                string_of_int p.Msc.Scaling.e_depth;
                Printf.sprintf "%.3g" p.Msc.Scaling.e_compute_s;
                Printf.sprintf "%.3g" p.Msc.Scaling.e_comm_s;
                Printf.sprintf "%.3g" p.Msc.Scaling.e_time_s;
                Printf.sprintf "%.3f" p.Msc.Scaling.e_efficiency;
              ])
            points
        in
        print_string
          (Msc.Table.render
             ~title:
               (Printf.sprintf "%s %s scaling of %s (base %s, depth %d)" pname
                  (match mode with `Strong -> "strong" | `Weak -> "weak")
                  b.Msc.Suite.name (dims_str base) depth)
             ~header:
               [
                 "ranks"; "grid"; "sub-grid"; "depth"; "compute s"; "comm s";
                 "s/step"; "efficiency";
               ]
             rows);
        if not tune then 0
        else begin
          (* Tune at the last rung over the global grid that rung actually
             covers (under weak scaling that is sub * grid). *)
          let last = List.nth points (List.length points - 1) in
          let global =
            match mode with
            | `Strong -> base
            | `Weak ->
                Array.mapi
                  (fun d g -> g * last.Msc.Scaling.e_sub.(d))
                  last.Msc.Scaling.e_grid
          in
          match
            Msc.Autotune.tune_scale ?ranks_per_node:rpn ~platform ~make_stencil
              ~global ~nranks:last.Msc.Scaling.e_ranks ()
          with
          | exception Invalid_argument msg ->
              prerr_endline msg;
              1
          | best, ranking ->
              let top n l =
                List.filteri (fun i _ -> i < n) l
              in
              let rows =
                List.map
                  (fun (c : Msc.Autotune.scale_choice) ->
                    [
                      dims_str c.Msc.Autotune.sc_grid;
                      dims_str c.Msc.Autotune.sc_sub;
                      string_of_int c.Msc.Autotune.sc_depth;
                      Printf.sprintf "%.3g" c.Msc.Autotune.sc_compute_s;
                      Printf.sprintf "%.3g" c.Msc.Autotune.sc_comm_s;
                      Printf.sprintf "%.3g" c.Msc.Autotune.sc_time_s;
                    ])
                  (top 5 ranking)
              in
              print_string
                (Msc.Table.render
                   ~title:
                     (Printf.sprintf
                        "tuned at %d ranks over global %s (%d candidates; \
                         best: grid %s, depth %d)"
                        last.Msc.Scaling.e_ranks (dims_str global)
                        (List.length ranking)
                        (dims_str best.Msc.Autotune.sc_grid)
                        best.Msc.Autotune.sc_depth)
                   ~header:
                     [
                       "grid"; "sub-grid"; "depth"; "compute s"; "comm s";
                       "s/step";
                     ]
                   rows);
              0
        end
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Model strong/weak parallel efficiency over a simulated rank ladder \
          (hierarchical node-aware cost model; no execution), optionally \
          tuning the rank-grid shape and temporal depth at the largest rung.")
    Term.(
      const run $ bench_arg $ platform_arg $ mode_arg $ base_arg $ ladder_arg
      $ depth_arg $ rpn_arg $ tune_arg)

let experiment_cmd =
  let experiment_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "table1 | table4 | table5 | table6 | table7 | table8 | fig7 | fig8 | \
             fig9 | fig10 | fig11 | fig12 | fig13 | fig14 | correctness | \
             ablations | all")
  in
  let run name =
    let module E = Msc.Experiments in
    let render =
      match name with
      | "table1" -> Some E.render_table1
      | "table4" -> Some E.render_table4
      | "table5" -> Some E.render_table5
      | "table6" -> Some E.render_table6
      | "table7" -> Some E.render_table7
      | "table8" -> Some E.render_table8
      | "fig7" -> Some E.render_fig7
      | "fig8" -> Some E.render_fig8
      | "fig9" -> Some E.render_fig9
      | "fig10" -> Some E.render_fig10
      | "fig11" -> Some E.render_fig11
      | "fig12" -> Some E.render_fig12
      | "fig13" -> Some E.render_fig13
      | "fig14" -> Some E.render_fig14
      | "correctness" -> Some E.render_correctness
      | "ablations" -> Some Msc.Ablations.render_all
      | "all" -> Some (fun () -> E.render_all () ^ "\n" ^ Msc.Ablations.render_all ())
      | _ -> None
    in
    match render with
    | Some f ->
        print_string (f ());
        0
    | None ->
        Printf.eprintf "unknown experiment %S\n" name;
        1
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure from the paper.")
    Term.(const run $ experiment_name)

let () =
  let doc = "MSC: automatic code generation and optimization of large-scale stencils" in
  let info = Cmd.info "msc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            gen_cmd;
            run_cmd;
            solve_cmd;
            verify_cmd;
            simulate_cmd;
            profile_cmd;
            graph_cmd;
            run_graph_cmd;
            scale_cmd;
            experiment_cmd;
          ]))
