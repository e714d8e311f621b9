(* Pipeline graph IR: validation, analysis, the three passes (dead-stage
   elimination, producer->consumer fusion, shared-halo merging), the staged
   runtime, and distributed execution. The load-bearing property throughout
   is bit-identity: the pass-optimized graph, executed fused and merged on
   any engine, must match naive stage-at-a-time interpretation of the
   original graph exactly. *)

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

let run_graph ?config ?bc ~steps g =
  let rt = Runtime.create_graph ?config ?bc g in
  Runtime.run rt steps;
  Runtime.current rt

let bit_equal name reference got =
  check_bool name true (Grid.max_rel_error ~reference got = 0.0)

let engines =
  [
    ("bulk", Exec.Bulk_synchronous);
    ("overlapped", Exec.Overlapped);
    (* Graphs have no temporal block to deepen: depth 1 is accepted (and
       recorded as bulk in [effective_engine]); depth > 1 raises — see
       [distributed_rejects_unmerged]. *)
    ("temporal", Exec.Temporal_blocked { depth = 1 });
  ]

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

let unsharp_collapses () =
  let g = optimize (Suite.pipeline ~dims "unsharp_mask") in
  check_int "fused to one stage" 1 (List.length g.Graph.stages);
  check_bool "merged" true g.Graph.merged;
  Alcotest.(check (array int)) "radius 2" [| 2; 2 |]
    (Stencil.radius (Graph.output_stage g).Graph.stencil)

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
        stage "b" (Builder.box_kernel ~name:"Kb" ~radius:2 (sp ~halo:[| 2; 2 |] "a"));
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

(* Split stepping on a multi-stage graph: stages 0..n-2 through
   [sweep_graph_stage], the output stage through [sweep_tasks], then
   [finish_step] must reproduce [step] bit for bit, on either backend. *)
let split_stepping_matches_step () =
  List.iter
    (fun name ->
      let g = Suite.pipeline ~dims name in
      List.iter
        (fun backend ->
          let config = Exec.Config.make ~backend () in
          let whole = Runtime.create_graph ~config g in
          let split = Runtime.create_graph ~config g in
          let n = Runtime.graph_stage_count split in
          check_bool (name ^ ": multi-stage") true (n > 1);
          for _ = 1 to 3 do
            Runtime.step whole;
            for i = 0 to n - 2 do
              Runtime.sweep_graph_stage split i (Runtime.graph_stage_tasks split i)
            done;
            Runtime.sweep_tasks split (Runtime.tiles split);
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
  let consumer = stage "out" (Builder.box_kernel ~name:"Kc" ~radius:1 (sp "p")) in
  let g = Graph.make ~source:src ~output:"out" [ producer; consumer ] in
  let go = optimize g in
  check_int "fused" 1 (List.length go.Graph.stages);
  bit_equal "scaled producer" (run_graph ~steps:3 g) (run_graph ~steps:3 go)

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

let distributed_bit_identical () =
  List.iter
    (fun name ->
      let g = optimize (Suite.pipeline ~dims:[| 18; 20 |] name) in
      List.iter
        (fun (ename, engine) ->
          List.iter
            (fun (bname, bc) ->
              List.iter
                (fun ranks_shape ->
                  let config = Exec.Config.make ~engine () in
                  check_bool
                    (Printf.sprintf "%s/%s/%s ranks %dx%d" name ename bname
                       ranks_shape.(0) ranks_shape.(1))
                    true
                    (Distributed.validate_graph ~config ~steps:3 ~bc
                       ~ranks_shape g
                    = 0.0))
                [ [| 2; 2 |]; [| 3; 2 |] ])
            [ ("dirichlet", Bc.Dirichlet 0.0); ("periodic", Bc.Periodic) ])
        engines)
    Suite.pipeline_names

let distributed_rejects_unmerged () =
  let g = Suite.pipeline ~dims "unsharp_mask" in
  invalid "unmerged multi-stage" (fun () ->
      Distributed.create_graph ~ranks_shape:[| 2; 1 |] g);
  (* Temporal depth > 1 cannot be honored for graphs (intermediates are
     recomputed per step, not stepped) — an explicit request raises instead
     of silently degrading to bulk. *)
  let gm = optimize g in
  invalid "temporal depth > 1" (fun () ->
      Distributed.create_graph
        ~config:(Exec.Config.make ~engine:(Exec.Temporal_blocked { depth = 2 }) ())
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

(* --- qcheck: random DAGs, all engines --- *)

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

let random_dag_bit_identical =
  qc ~count:12 "random DAG: passes + engines bit-identical" random_graph_arb
    (fun spec ->
      let g = build_random_graph spec in
      let go = optimize g in
      let naive = run_graph ~steps:2 g in
      Grid.max_rel_error ~reference:naive (run_graph ~steps:2 go) = 0.0
      && List.for_all
           (fun (_, engine) ->
             Distributed.validate_graph
               ~config:(Exec.Config.make ~engine ())
               ~steps:2 ~ranks_shape:[| 2; 2 |] go
             = 0.0)
           engines)

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
    has "post-pass: fused" "stages=1" out;
    let rc, out = run "graph harris --raw" in
    check_int "graph --raw exits 0" 0 rc;
    has "raw harris lists stages" "ixy" out;
    let rc, out = run "run-graph unsharp -n 2 --small" in
    check_int "run-graph exits 0" 0 rc;
    has "reports fused stage count" "stages: 4 -> 1" out;
    has "reports exchanges" "exchanges/step: 1" out;
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
