(* Pipeline graph IR: validation, analysis, the three passes (dead-stage
   elimination, producer->consumer fusion with its per-edge cost rule,
   shared-halo merging), the graph runtime's tile-local producers, and
   distributed execution. The load-bearing property throughout is
   bit-identity: the pass-optimized graph, under any inlining choice, on
   any backend, pool size and rank grid, must match naive stage-at-a-time
   interpretation of the original graph exactly. *)

open Helpers
module Expr = Msc_ir.Expr
module Tensor = Msc_ir.Tensor
module Kernel = Msc_ir.Kernel
module Stencil = Msc_ir.Stencil
module Builder = Msc_frontend.Builder
module Graph = Msc_graph.Graph
module Pass = Msc_graph.Pass
module Plan = Msc_schedule.Plan
module Schedule = Msc_schedule.Schedule
module Grid = Msc_exec.Grid
module Exec = Msc_exec.Exec
module Runtime = Msc_exec.Runtime
module Bc = Msc_exec.Bc
module Distributed = Msc_comm.Distributed
module Suite = Msc_benchsuite.Suite

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i =
    i + n <= h && (String.equal (String.sub haystack i n) needle || scan (i + 1))
  in
  scan 0

let dims = [| 16; 20 |]
let ivars = Builder.default_index_vars 2
let sp ?(halo = [| 1; 1 |]) ?(tw = 1) name = Tensor.sp ~time_window:tw ~halo name Msc_ir.Dtype.F64 dims
let stage name k = { Graph.name; stencil = Stencil.of_kernel k }

let invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let optimize g = Pass.apply Pass.default_pipeline g

(* The three inlining choices a graph can run under: every eligible
   producer inlined, none (every producer tile-local), and the default
   per-edge cost rule. *)
let inlining_choices =
  [
    ("all inlined", [ Pass.dead_stage_elim; Pass.inline_all (); Pass.merge_halos () ]);
    ("none inlined", [ Pass.dead_stage_elim; Pass.merge_halos () ]);
    ("default rule", Pass.default_pipeline);
  ]

let run_graph ?config ?bc ~steps g =
  let rt = Runtime.create_graph ?config ?bc g in
  Runtime.run rt steps;
  Runtime.current rt

let bit_equal name reference got =
  check_bool name true (Grid.max_rel_error ~reference got = 0.0)

(* --- Validation --- *)

let validation_rejects () =
  let src = sp "I" in
  let ta = sp "a" and tb = sp "b" in
  let ka = Builder.star_kernel ~name:"Ka" ~radius:1 tb in
  let kb = Builder.star_kernel ~name:"Kb" ~radius:1 ta in
  invalid "cycle" (fun () ->
      Graph.make ~source:src ~output:"b" [ stage "a" ka; stage "b" kb ]);
  let k_src = Builder.star_kernel ~name:"Ks" ~radius:1 src in
  invalid "duplicate names" (fun () ->
      Graph.make ~source:src ~output:"a" [ stage "a" k_src; stage "a" k_src ]);
  invalid "undefined output" (fun () ->
      Graph.make ~source:src ~output:"zz" [ stage "a" k_src ]);
  invalid "source-shadowing stage" (fun () ->
      Graph.make ~source:src ~output:"I" [ stage "I" k_src ]);
  invalid "unknown input tensor" (fun () ->
      Graph.make ~source:src ~output:"b"
        [ stage "b" (Builder.star_kernel ~name:"Kb" ~radius:1 (sp "ghost")) ]);
  (* Output must be a sink: intermediates only hold the current step. *)
  invalid "output read by another stage" (fun () ->
      Graph.make ~source:src ~output:"a"
        [ stage "a" k_src; stage "c" (Builder.star_kernel ~name:"Kc" ~radius:1 ta) ]);
  (* Stage buffers are not stepped, so dt > 1 reads of them are meaningless. *)
  let deep = Stencil.make ~name:"deep" ~grid:{ ta with Tensor.time_window = 2 }
      (Stencil.Apply (Builder.star_kernel ~name:"Kd" ~radius:1 { ta with Tensor.time_window = 2 }, 2))
  in
  invalid "stage input at dt 2" (fun () ->
      Graph.make ~source:src ~output:"deep"
        [ stage "a" k_src; { Graph.name = "deep"; stencil = deep } ]);
  invalid "shape mismatch" (fun () ->
      let odd = Tensor.sp ~halo:[| 1; 1 |] "odd" Msc_ir.Dtype.F64 [| 16; 21 |] in
      Graph.make ~source:src ~output:"b"
        [ stage "odd" k_src; stage "b" (Builder.star_kernel ~name:"Kb" ~radius:1 odd) ])

let analysis_chain () =
  (* a <- I (r=1), b <- a (r=1), c <- b (r=1, output): extensions grow
     downstream-to-upstream, the halo covers extension + radius. *)
  let src = sp "I" in
  let g =
    Graph.make ~source:src ~output:"c"
      [
        stage "a" (Builder.star_kernel ~name:"Ka" ~radius:1 src);
        stage "b" (Builder.star_kernel ~name:"Kb" ~radius:1 (sp "a"));
        stage "c" (Builder.star_kernel ~name:"Kc" ~radius:1 (sp "b"));
      ]
  in
  Alcotest.(check (array int)) "ext a" [| 2; 2 |] (Graph.extension g "a");
  Alcotest.(check (array int)) "ext b" [| 1; 1 |] (Graph.extension g "b");
  Alcotest.(check (array int)) "ext c" [| 0; 0 |] (Graph.extension g "c");
  Alcotest.(check (array int)) "required halo" [| 3; 3 |] (Graph.required_halo g);
  check_int "sweeps/step" 3 (Graph.sweeps_per_step g);
  check_int "time window" 1 (Graph.time_window g)

let dot_export () =
  let g = Suite.pipeline ~dims "unsharp_mask" in
  let dot = Graph.to_dot g in
  let has needle = check_bool needle true (contains ~needle dot) in
  has "digraph";
  has "\"blur1\"";
  has "\"I\" -> \"blur1\"";
  has "peripheries=2"

(* --- Passes --- *)

let dead_stage_dropped () =
  let g = Suite.pipeline ~dims "unsharp_mask" in
  let g' = Pass.dead_stage_elim.Pass.run g in
  check_bool "edges dead" false (Graph.is_stage g' "edges");
  check_bool "blur1 live" true (Graph.is_stage g' "blur1");
  check_int "3 stages left" 3 (List.length g'.Graph.stages)

(* The per-edge rule inlines blur2 into sharp ((1 - 1) * 17 <= 3) but
   keeps blur1 tile-local: sharp would re-run its 9-tap blur at 9 offsets
   ((9 - 1) * 17 > 20). *)
let unsharp_collapses () =
  let raw = Suite.pipeline ~dims "unsharp_mask" in
  let g = optimize raw in
  check_int "3 live stages -> 2" 2 (List.length g.Graph.stages);
  check_bool "merged" true g.Graph.merged;
  let placements = Pass.placements ~raw g in
  check_bool "blur2 inlined into sharp" true
    (List.assoc "blur2" placements = Pass.Inlined "sharp");
  check_bool "blur1 tile-local" true (List.assoc "blur1" placements = Pass.Tile_local);
  check_bool "edges dead" true (List.assoc "edges" placements = Pass.Dead);
  Alcotest.(check (array int)) "sharp radius 1" [| 1; 1 |]
    (Stencil.radius (Graph.output_stage g).Graph.stencil)

(* Each producer's final fusion decision is counted once, and the graph
   runtime reports its per-worker window bytes. *)
let fusion_decisions_traced () =
  let total trace name =
    match
      List.find_opt
        (fun (t : Msc_trace.total) -> String.equal t.Msc_trace.counter name)
        (Msc_trace.totals trace)
    with
    | Some t -> t.Msc_trace.sum
    | None -> 0.0
  in
  let trace = Msc_trace.create () in
  let g = Pass.apply ~trace Pass.default_pipeline (Suite.pipeline ~dims "unsharp_mask") in
  check_float "blur2 inlined" 1.0 (total trace "pass.fuse.inlined");
  check_float "blur1 tile-local" 1.0 (total trace "pass.fuse.tile_local");
  let trace = Msc_trace.create () in
  ignore (Runtime.create_graph ~trace g);
  let gp = Result.get_ok (Plan.compile_graph g Schedule.empty) in
  check_int "one window slot" 1 gp.Plan.gp_n_buffers;
  check_bool "a window is a slab, not a grid" true
    (Runtime.window_bytes gp > 0 && Runtime.window_bytes gp <= Runtime.window_budget);
  check_float "graph.window_bytes" (float_of_int (Runtime.window_bytes gp))
    (total trace "graph.window_bytes")

let harris_collapses () =
  let g = optimize (Suite.pipeline ~dims "harris_corner") in
  check_int "fused to one stage" 1 (List.length g.Graph.stages);
  check_bool "merged" true g.Graph.merged

let fuse_respects_max_radius () =
  let src = sp ~halo:[| 2; 2 |] "I" in
  let g =
    Graph.make ~source:src ~output:"b"
      [
        stage "a" (Builder.box_kernel ~name:"Ka" ~radius:2 src);
        (* One read of [a], two rows out: the cost rule inlines it, so
           only the clamp decides. *)
        stage "b"
          (Builder.kernel ~name:"Kb" ~grid:(sp ~halo:[| 2; 2 |] "a")
             Expr.(f 0.5 * read "a" [| 2; -1 |]));
      ]
  in
  let clamped = Pass.apply [ Pass.fuse ~max_radius:3 () ] g in
  check_int "r=4 compound exceeds clamp" 2 (List.length clamped.Graph.stages);
  let fused = Pass.apply [ Pass.fuse () ] g in
  check_int "default clamp admits r=4" 1 (List.length fused.Graph.stages);
  bit_equal "clamped fusion is still exact"
    (run_graph ~steps:2 g)
    (run_graph ~steps:2 (optimize g))

let merge_respects_max_width () =
  let src = sp ~halo:[| 3; 3 |] "I" in
  let g =
    Graph.make ~source:src ~output:"b"
      [
        stage "a" (Builder.box_kernel ~name:"Ka" ~radius:3 src);
        stage "b" (Builder.box_kernel ~name:"Kb" ~radius:3 (sp ~halo:[| 3; 3 |] "a"));
      ]
  in
  (* Unfused the pipeline needs halo 6 (stage a: ext 3 + r 3). *)
  Alcotest.(check (array int)) "halo 6" [| 6; 6 |] (Graph.required_halo g);
  let narrow = Pass.apply [ Pass.merge_halos ~max_width:4 () ] g in
  check_bool "halo 6 > 4 stays unmerged" false narrow.Graph.merged;
  let wide = Pass.apply [ Pass.merge_halos ~max_width:8 () ] g in
  check_bool "halo 6 <= 8 merges" true wide.Graph.merged

(* --- Bit-identity: fused vs naive stage-at-a-time --- *)

let pipelines_bit_identical () =
  List.iter
    (fun name ->
      let g = Suite.pipeline ~dims name in
      let go = optimize g in
      List.iter
        (fun (bname, bc) ->
          bit_equal
            (Printf.sprintf "%s/%s fused == naive" name bname)
            (run_graph ~bc ~steps:3 g)
            (run_graph ~bc ~steps:3 go))
        [ ("dirichlet", Bc.Dirichlet 0.0); ("periodic", Bc.Periodic) ])
    Suite.pipeline_names

(* Split stepping on a multi-stage graph: a graph steps as one stage, so
   its tasks split into an interior through [sweep_graph_stage] and a
   shell through [sweep_tasks], then [finish_step], must reproduce [step]
   bit for bit, on either backend — each task computes the tile-local
   producers it reads. *)
let split_stepping_matches_step () =
  List.iter
    (fun name ->
      let g = Suite.pipeline ~dims name in
      List.iter
        (fun backend ->
          let config = Exec.Config.make ~backend () in
          let whole = Runtime.create_graph ~config g in
          let split = Runtime.create_graph ~config g in
          check_int (name ^ ": one stage per step") 1 (Runtime.graph_stage_count split);
          let interior, shell =
            Plan.split_tasks ~core_lo:[| 3; 2 |] ~core_hi:[| 11; 17 |]
              (Runtime.graph_stage_tasks split 0)
          in
          for _ = 1 to 3 do
            Runtime.step whole;
            Runtime.sweep_graph_stage split 0 interior;
            Runtime.sweep_tasks split shell;
            Runtime.finish_step split
          done;
          check_bool
            (Printf.sprintf "%s/%s split == step" name
               (Msc_exec.Backend.to_string backend))
            true
            ((Runtime.current split).Grid.data = (Runtime.current whole).Grid.data))
        Msc_exec.Backend.all)
    [ "harris_corner"; "unsharp_mask" ]

let scaled_producer_exact () =
  (* Producer contributing through Scale: the fused kernel must multiply
     by the same literal the scaled writeback used. *)
  let src = sp "I" in
  let p = Builder.star_kernel ~name:"Kp" ~radius:1 src in
  let producer =
    { Graph.name = "p"; stencil = Stencil.make ~name:"p" ~grid:src (Stencil.Scale (0.75, Stencil.Apply (p, 1))) }
  in
  let graph consumer = Graph.make ~source:src ~output:"out" [ producer; stage "out" consumer ] in
  (* One read of p: the cost rule inlines it. *)
  let g = graph (Builder.kernel ~name:"Kc" ~grid:(sp "p") Expr.(f 0.5 * read "p" [| 1; 0 |])) in
  let go = optimize g in
  check_int "fused" 1 (List.length go.Graph.stages);
  bit_equal "scaled producer" (run_graph ~steps:3 g) (run_graph ~steps:3 go);
  (* Nine reads of p: the cost rule keeps it tile-local (8 * 10 > 17), with
     the same bits. *)
  let g = graph (Builder.box_kernel ~name:"Kc" ~radius:1 (sp "p")) in
  check_int "tile-local by default" 2 (List.length (optimize g).Graph.stages);
  bit_equal "scaled producer, tile-local" (run_graph ~steps:3 g)
    (run_graph ~steps:3 (optimize g))

let state_producer_exact () =
  (* An identity (State) stage fuses into a direct source read. *)
  let src = sp "I" in
  let producer =
    { Graph.name = "copy"; stencil = Stencil.make ~name:"copy" ~grid:src (Stencil.State 1) }
  in
  let consumer = stage "out" (Builder.star_kernel ~name:"Kc" ~radius:1 (sp "copy")) in
  let g = Graph.make ~source:src ~output:"out" [ producer; consumer ] in
  let go = optimize g in
  check_int "fused" 1 (List.length go.Graph.stages);
  check_bool "reads source directly" true (Graph.reads_source g (Graph.output_stage go));
  bit_equal "state producer" (run_graph ~steps:3 g) (run_graph ~steps:3 go)

let multi_term_consumer_exact () =
  (* Consumer combining the fused producer with a State term of its own
     input: fusion must refuse the input re-point, not mis-fuse it. *)
  let src = sp ~tw:2 "I" in
  let blur = stage "blur" (Builder.box_kernel ~name:"Kb" ~radius:1 src) in
  let t_blur = sp "blur" in
  let comb =
    {
      Graph.name = "out";
      stencil =
        Stencil.make ~name:"out" ~grid:t_blur
          (Stencil.Sum
             ( Stencil.Apply
                 ( Kernel.make ~name:"Kcomb" ~input:t_blur ~index_vars:ivars
                     Expr.(Binop (Mul, Fconst 0.5, read "blur" [| 0; 0 |])),
                   1 ),
               Stencil.Scale (0.5, Stencil.State 1) ))
    }
  in
  let g = Graph.make ~source:src ~output:"out" [ blur; comb ] in
  let go = optimize g in
  (* State term reads the consumer's own input (the blur buffer), so the
     producer cannot be folded away — but the run must still agree. *)
  check_int "fusion refused" 2 (List.length go.Graph.stages);
  bit_equal "multi-term consumer" (run_graph ~steps:3 g) (run_graph ~steps:3 go)

(* --- Staged plan --- *)

let buffer_reuse () =
  let g = Suite.pipeline ~dims "harris_corner" in
  match Plan.compile_graph g Schedule.empty with
  | Error m -> Alcotest.fail m
  | Ok gp ->
      check_int "nine stages" 9 (List.length gp.Plan.gp_stages);
      check_bool "buffers reused across dead intermediates" true
        (gp.Plan.gp_n_buffers <= 5);
      check_int "one exchange when merged, else per stage" 9
        gp.Plan.gp_exchanges_per_step;
      let go = optimize g in
      (match Plan.compile_graph go Schedule.empty with
      | Error m -> Alcotest.fail m
      | Ok gpo ->
          check_int "fused plan buffers" 0 gpo.Plan.gp_n_buffers;
          check_int "merged exchanges/step" 1 gpo.Plan.gp_exchanges_per_step;
          check_int "naive exchanges/step recorded" 9
            gp.Plan.gp_naive_exchanges_per_step)

(* --- Distributed --- *)

(* Graphs have no temporal block to deepen, so they step at depth 1 only
   (depth > 1 raises — see [distributed_rejects_unmerged]); the ranks run
   on the sequential pool and on 2 workers, against the single-grid graph
   runtime. *)
let distributed_bit_identical () =
  let pool = Msc_util.Domain_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Msc_util.Domain_pool.shutdown pool)
    (fun () ->
      List.iter
        (fun name ->
          let g = optimize (Suite.pipeline ~dims:[| 18; 20 |] name) in
          List.iter
            (fun (pname, pool) ->
              List.iter
                (fun (bname, bc) ->
                  List.iter
                    (fun ranks_shape ->
                      let config = Exec.Config.make ~pool () in
                      check_bool
                        (Printf.sprintf "%s/%s/%s ranks %dx%d" name pname bname
                           ranks_shape.(0) ranks_shape.(1))
                        true
                        (Distributed.validate_graph ~config ~steps:3 ~bc
                           ~ranks_shape g
                        = 0.0))
                    [ [| 2; 2 |]; [| 3; 2 |] ])
                [ ("dirichlet", Bc.Dirichlet 0.0); ("periodic", Bc.Periodic) ])
            [ ("sequential", Msc_util.Domain_pool.sequential); ("2 workers", pool) ])
        Suite.pipeline_names)

let distributed_rejects_unmerged () =
  let g = Suite.pipeline ~dims "unsharp_mask" in
  invalid "unmerged multi-stage" (fun () ->
      Distributed.create_graph ~ranks_shape:[| 2; 1 |] g);
  (* Temporal depth > 1 cannot be honored for graphs (intermediates are
     recomputed per step, not stepped) — an explicit request raises instead
     of silently clamping to depth 1. *)
  let gm = optimize g in
  invalid "temporal depth > 1" (fun () ->
      Distributed.create_graph
        ~config:(Exec.Config.make ~depth:2 ())
        ~ranks_shape:[| 2; 2 |] gm);
  (* ... and a single-stage graph needs no merge. *)
  let single = Graph.single (snd (stencil_2d9pt_box ())) in
  check_bool "single-stage ok" true
    (Distributed.validate_graph ~steps:2 ~ranks_shape:[| 2; 2 |] single = 0.0)

let distributed_thin_rank_rejected () =
  let g = optimize (Suite.pipeline ~dims:[| 16; 20 |] "unsharp_mask") in
  (* halo 2 > extent 1 on a 16-wide dim split 12 ways *)
  invalid "rank thinner than halo" (fun () ->
      Distributed.create_graph ~ranks_shape:[| 12; 1 |] g)

(* --- qcheck: random DAGs, single node and distributed --- *)

type stage_kind = K_star | K_deriv | K_square | K_ident | K_scaled | K_two_term

let kind_of_int = function
  | 0 -> K_star
  | 1 -> K_deriv
  | 2 -> K_square
  | 3 -> K_ident
  | 4 -> K_scaled
  | _ -> K_two_term

let build_random_graph (m, n, picks) =
  let rdims = [| m; n |] in
  let sp name = Tensor.sp ~time_window:2 ~halo:[| 1; 1 |] name Msc_ir.Dtype.F64 rdims in
  let src = sp "I" in
  let nstages = List.length picks in
  let stages =
    List.mapi
      (fun i (kind, input_pick) ->
        let name = Printf.sprintf "s%d" i in
        let input_name =
          if i = 0 || input_pick mod (i + 1) = 0 then "I"
          else Printf.sprintf "s%d" (input_pick mod i)
        in
        let input = sp input_name in
        let kname = "K_" ^ name in
        let stencil =
          match kind_of_int kind with
          | K_star -> Stencil.of_kernel (Builder.star_kernel ~name:kname ~radius:1 input)
          | K_deriv ->
              Stencil.of_kernel
                (Kernel.make ~name:kname ~input ~index_vars:ivars
                   Expr.(
                     Binop
                       ( Sub,
                         Binop (Mul, Fconst 0.5, read input_name [| 0; 1 |]),
                         Binop (Mul, Fconst 0.5, read input_name [| 0; -1 |]) )))
          | K_square ->
              Stencil.of_kernel
                (Kernel.make ~name:kname ~input ~index_vars:ivars
                   Expr.(
                     Binop (Mul, read input_name [| 0; 0 |], read input_name [| 0; 0 |])))
          | K_ident -> Stencil.make ~name ~grid:input (Stencil.State 1)
          | K_scaled ->
              Stencil.make ~name ~grid:input
                (Stencil.Scale
                   (0.5, Stencil.Apply (Builder.star_kernel ~name:kname ~radius:1 input, 1)))
          | K_two_term ->
              (* Only meaningful against the stepped source: mix a kernel
                 at dt 1 with the raw state at dt 2. *)
              let input = if String.equal input_name "I" then input else src in
              Stencil.make ~name ~grid:input
                (Stencil.Sum
                   ( Stencil.Scale
                       ( 0.5,
                         Stencil.Apply
                           (Builder.star_kernel ~name:kname ~radius:1 input, 1) ),
                     Stencil.Scale (0.5, Stencil.State 2) ))
        in
        { Graph.name; stencil })
      picks
  in
  Graph.make ~source:src ~output:(Printf.sprintf "s%d" (nstages - 1)) stages

let random_graph_gen =
  QCheck.Gen.(
    int_range 10 13 >>= fun m ->
    int_range 11 14 >>= fun n ->
    int_range 2 4 >>= fun nstages ->
    list_size (return nstages) (pair (int_range 0 5) (int_range 0 97))
    >>= fun picks -> return (m, n, picks))

let random_graph_arb =
  QCheck.make
    ~print:(fun (m, n, picks) ->
      Format.asprintf "%a" Graph.pp (build_random_graph (m, n, picks)))
    random_graph_gen

(* Every DAG under each inlining choice, on both backends, at pool sizes
   1 and 2 with 4x5 tiles (which divide none of the generated extents),
   against the raw graph on the interpreter; then distributed over 2x2
   ranks. *)
let random_dag_bit_identical =
  qc ~count:12 "random DAG: passes + engines bit-identical" random_graph_arb
    (fun spec ->
      let g = build_random_graph spec in
      let naive = run_graph ~steps:2 g in
      let schedule =
        Schedule.matrix_canonical ~tile:[| 4; 5 |] ~threads:2
          (Builder.star_kernel ~name:"K_tiles" ~radius:1 g.Graph.source)
      in
      let pool = Msc_util.Domain_pool.create 2 in
      Fun.protect
        ~finally:(fun () -> Msc_util.Domain_pool.shutdown pool)
        (fun () ->
          List.for_all
            (fun (_, passes) ->
              let go = Pass.apply passes g in
              List.for_all
                (fun (backend, pool) ->
                  let rt =
                    Runtime.create_graph ~schedule
                      ~config:(Exec.Config.make ~backend ~pool ()) go
                  in
                  Runtime.run rt 2;
                  Grid.max_rel_error ~reference:naive (Runtime.current rt) = 0.0)
                [
                  (Msc_exec.Backend.Interp, Msc_util.Domain_pool.sequential);
                  (Msc_exec.Backend.Interp, pool);
                  (Msc_exec.Backend.Compiled_c, Msc_util.Domain_pool.sequential);
                  (Msc_exec.Backend.Compiled_c, pool);
                ]
              && Distributed.validate_graph ~steps:2 ~ranks_shape:[| 2; 2 |] go = 0.0)
            inlining_choices))

(* Rows wide enough that one window per producer blows the per-worker
   budget: tasks are cut into sub-slabs (5-row tiles over 13 rows leave a
   remainder tile too), and every cut still computes the same bits. *)
let sub_slab_cuts_bit_identical () =
  let wide = [| 13; 9000 |] in
  let raw = Suite.pipeline ~dims:wide "unsharp_mask" in
  let naive = run_graph ~steps:2 raw in
  let go = Pass.apply (List.assoc "none inlined" inlining_choices) raw in
  let schedule =
    Schedule.matrix_canonical ~tile:[| 5; 9000 |] ~threads:2
      (Builder.star_kernel ~name:"K_tiles" ~radius:1 raw.Graph.source)
  in
  let gp = Result.get_ok (Plan.compile_graph go schedule) in
  check_bool "windows of a whole task exceed the budget" true
    (gp.Plan.gp_n_buffers * 9 * 9004 * 8 > Runtime.window_budget);
  check_bool "sub-slab windows fit it" true
    (Runtime.window_bytes gp <= Runtime.window_budget);
  let pool = Msc_util.Domain_pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Msc_util.Domain_pool.shutdown pool)
    (fun () ->
      List.iter
        (fun (backend, pool) ->
          let rt =
            Runtime.create_graph ~graph_plan:gp
              ~config:(Exec.Config.make ~backend ~pool ()) go
          in
          Runtime.run rt 2;
          bit_equal
            (Printf.sprintf "%s, %d workers" (Msc_exec.Backend.to_string backend)
               (Msc_util.Domain_pool.size pool))
            naive (Runtime.current rt))
        [
          (Msc_exec.Backend.Interp, Msc_util.Domain_pool.sequential);
          (Msc_exec.Backend.Compiled_c, Msc_util.Domain_pool.sequential);
          (Msc_exec.Backend.Compiled_c, pool);
        ])

(* The window checks: a range whose reads leave the rows a window holds is
   refused with the interpreter's check error before anything is
   written, directly and through a runtime's task. *)
let window_range_rejected () =
  let src = sp ~halo:[| 2; 2 |] "I" in
  let k = Builder.box_kernel ~name:"Kb" ~radius:1 src in
  let geometry = Grid.of_tensor src in
  let interp = Msc_exec.Interp.compile k ~geometry in
  let window = Grid.create ~shape:[| 6; 20 |] ~halo:[| 0; 2 |] in
  let placement = { Msc_exec.Interp.first_row = 4; windows = [| window |] } in
  let dst = Grid.like geometry in
  let ok lo0 hi0 =
    match
      Msc_exec.Interp.check_kernel_window placement ~aux:[] interp ~src:window ~dst
        ~lo:[| lo0; 0 |] ~hi:[| hi0; 20 |]
    with
    | () -> true
    | exception Invalid_argument _ -> false
  in
  check_bool "reads rows 4..9 of a window holding 4..9" true (ok 5 9);
  check_bool "reads row 3: below the window" false (ok 4 9);
  check_bool "reads row 10: above the window" false (ok 5 10);
  check_bool "a window is not a whole grid" false
    (match Msc_exec.Interp.check_grids interp ~src:window ~dst with
    | () -> true
    | exception Invalid_argument _ -> false);
  (* Through the runtime: a task past the padded box is refused and the
     output slot keeps its bits. *)
  let g = optimize (Suite.pipeline ~dims "unsharp_mask") in
  let rt = Runtime.create_graph g in
  let before = Array.copy (Runtime.output_slot rt).Grid.data in
  invalid "task past the padded box" (fun () ->
      Runtime.sweep_tasks rt [| ([| 0; 0 |], [| dims.(0) + 3; dims.(1) |]) |]);
  check_bool "nothing written" true ((Runtime.output_slot rt).Grid.data = before)

(* --- CLI smoke --- *)

let cli_path = "../bin/msc_cli.exe"

let cli_graph_smoke () =
  if not (Sys.file_exists cli_path) then ()
  else begin
    let run args =
      let tmp = Filename.temp_file "msc_graph" ".out" in
      let rc =
        Sys.command (Printf.sprintf "%s %s > %s 2>&1" cli_path args (Filename.quote tmp))
      in
      let ic = open_in tmp in
      let out = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove tmp;
      (rc, out)
    in
    let has name needle hay = check_bool name true (contains ~needle hay) in
    let rc, out = run "graph unsharp_mask --dot" in
    check_int "graph --dot exits 0" 0 rc;
    has "dot output" "digraph pipeline" out;
    has "post-pass: blur1 kept" "stages=2" out;
    let rc, out = run "graph harris --raw" in
    check_int "graph --raw exits 0" 0 rc;
    has "raw harris lists stages" "ixy" out;
    let rc, out = run "graph harris" in
    check_int "graph exits 0" 0 rc;
    has "harris inlines its gradients" "ix: inlined into response" out;
    let rc, out = run "run-graph unsharp -n 2 --small" in
    check_int "run-graph exits 0" 0 rc;
    has "reports the stage count" "stages: 4 -> 2" out;
    has "reports exchanges" "exchanges/step: 1" out;
    has "blur2 inlined" "blur2: inlined into sharp" out;
    has "blur1 tile-local" "blur1: tile-local (" out;
    let rc, out = run "verify unsharp --backend compiled_c" in
    check_int "verify pipeline exits 0" 0 rc;
    has "verify pipeline passes" "PASS (bit-identical)" out;
    let rc, _ = run "graph nonsense" in
    check_bool "unknown pipeline fails" true (rc <> 0)
  end

let suites =
  [
    ( "graph.ir",
      [
        tc "validation rejects" validation_rejects;
        tc "chain analysis" analysis_chain;
        tc "dot export" dot_export;
      ] );
    ( "graph.passes",
      [
        tc "dead stage dropped" dead_stage_dropped;
        tc "unsharp collapses" unsharp_collapses;
        tc "harris collapses" harris_collapses;
        tc "fusion decisions traced" fusion_decisions_traced;
        tc "fuse max radius" fuse_respects_max_radius;
        tc "merge max width" merge_respects_max_width;
      ] );
    ( "graph.bit_identity",
      [
        tc "suite pipelines" pipelines_bit_identical;
        tc "split stepping == step" split_stepping_matches_step;
        tc "scaled producer" scaled_producer_exact;
        tc "state producer" state_producer_exact;
        tc "multi-term consumer" multi_term_consumer_exact;
        random_dag_bit_identical;
        tc "sub-slab cuts" sub_slab_cuts_bit_identical;
        tc "window range rejected" window_range_rejected;
      ] );
    ( "graph.plan",
      [ tc "buffer reuse" buffer_reuse ] );
    ( "graph.distributed",
      [
        slow "all engines bit-identical" distributed_bit_identical;
        tc "unmerged rejected" distributed_rejects_unmerged;
        tc "thin rank rejected" distributed_thin_rank_rejected;
      ] );
    ( "graph.cli", [ tc "graph/run-graph smoke" cli_graph_smoke ] );
  ]
