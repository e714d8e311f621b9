(* Tests for multi-grid (variable-coefficient) stencils — the §5.6 WRF/POP2
   extension: kernels reading static coefficient grids alongside the evolving
   input grid, across the IR, interpreter, chain lowering,
   runtime, distributed execution, code generation and the simulators. *)

open Helpers
open Msc_ir
open Msc_frontend
module Grid = Msc_exec.Grid
module Interp = Msc_exec.Interp
module Jit = Msc_exec.Jit
module Runtime = Msc_exec.Runtime
module Verify = Msc_exec.Verify
module Schedule = Msc_schedule.Schedule
module Codegen = Msc_codegen.Codegen

let fixture ?(n = 12) ?(radius = 1) () =
  let grid = Builder.def_tensor_2d ~time_window:2 ~halo:radius "B" Dtype.F64 n n in
  let coeff = Builder.coefficient_grid ~grid "C" in
  let k = Builder.var_coeff_kernel ~name:"VC" ~coeff ~shape:Shapes.Star ~radius grid in
  (k, coeff, Builder.two_step ~name:"varcoef" k)

(* --- IR --- *)

let kernel_reports_multi_grid () =
  let k, coeff, _ = fixture () in
  check_bool "multi-grid" true (Kernel.is_multi_grid k);
  check_bool "aux lookup" true (Kernel.aux_tensor k "C" = Some coeff);
  check_bool "no such aux" true (Kernel.aux_tensor k "D" = None);
  check_bool "no single-grid taps" true (Kernel.taps k = None)

let kernel_counts_all_grids () =
  let k, _, _ = fixture () in
  (* 5 input reads + 5 coefficient reads. *)
  check_int "points" 10 (Kernel.points k)

let aux_shape_mismatch_rejected () =
  let grid = Builder.def_tensor_2d ~halo:1 "B" Dtype.F64 8 8 in
  let bad = Tensor.sp ~halo:[| 1; 1 |] "C" Dtype.F64 [| 4; 4 |] in
  check_bool "shape mismatch" true
    (try
       ignore
         (Kernel.make ~aux:[ bad ] ~name:"K" ~input:grid ~index_vars:[ "j"; "i" ]
            Expr.(read "C" [| 0; 0 |] * read "B" [| 0; 0 |]));
       false
     with Invalid_argument _ -> true)

let unknown_tensor_rejected () =
  let grid = Builder.def_tensor_2d ~halo:1 "B" Dtype.F64 8 8 in
  check_bool "undeclared aux" true
    (try
       ignore
         (Kernel.make ~name:"K" ~input:grid ~index_vars:[ "j"; "i" ]
            Expr.(read "C" [| 0; 0 |] * read "B" [| 0; 0 |]));
       false
     with Invalid_argument _ -> true)

let aux_offset_beyond_halo_rejected () =
  let grid = Builder.def_tensor_2d ~halo:1 "B" Dtype.F64 8 8 in
  let coeff = Builder.coefficient_grid ~grid "C" in
  check_bool "aux halo checked" true
    (try
       ignore
         (Kernel.make ~aux:[ coeff ] ~name:"K" ~input:grid ~index_vars:[ "j"; "i" ]
            Expr.(read "C" [| 2; 0 |] * read "B" [| 0; 0 |]));
       false
     with Invalid_argument _ -> true)

(* --- Interp --- *)

let interp_bilinear_detected () =
  let k, _, _ = fixture () in
  (* w * C[p+o] * B[p+o] over the 5 star offsets: five (c*a)*x products. *)
  check_bool "bilinear chain" true (Jit.chain_length k = Some 5)

let interp_bilinear_hand_value () =
  (* dst[p] = C[p] * B[p] on a 1-D grid: check one point by hand. *)
  let grid = Builder.def_tensor_1d ~halo:1 "B" Dtype.F64 4 in
  let coeff = Builder.coefficient_grid ~grid "C" in
  let k =
    Kernel.make ~aux:[ coeff ] ~name:"Pointwise" ~input:grid ~index_vars:[ "i" ]
      Expr.(read "C" [| 0 |] * read "B" [| 0 |])
  in
  let src = Grid.of_tensor grid and dst = Grid.of_tensor grid in
  let cg = Grid.of_tensor coeff in
  Grid.fill src (fun coord -> float_of_int (coord.(0) + 1));
  Grid.fill cg (fun coord -> float_of_int (10 * (coord.(0) + 1)));
  interp_apply ~aux:[ ("C", cg) ] k ~src ~dst;
  check_float "1*10 + 2*20 + 3*30 + 4*40" 300.0 (Grid.checksum dst)

let interp_missing_aux_rejected () =
  let k, _, _ = fixture () in
  let src = Grid.of_tensor k.Kernel.input and dst = Grid.of_tensor k.Kernel.input in
  check_bool "missing aux" true
    (try interp_apply k ~src ~dst; false with Invalid_argument _ -> true)

let interp_pure_aux_term () =
  (* dst[p] = C[p] + B[p]: a term with no input access. *)
  let grid = Builder.def_tensor_1d ~halo:1 "B" Dtype.F64 3 in
  let coeff = Builder.coefficient_grid ~grid "C" in
  let k =
    Kernel.make ~aux:[ coeff ] ~name:"AddField" ~input:grid ~index_vars:[ "i" ]
      Expr.(read "C" [| 0 |] + read "B" [| 0 |])
  in
  check_bool "two-product chain" true (Jit.chain_length k = Some 2);
  let src = Grid.of_tensor grid and dst = Grid.of_tensor grid in
  let cg = Grid.of_tensor coeff in
  Grid.fill src (fun _ -> 1.0);
  Grid.fill cg (fun _ -> 2.0);
  interp_apply ~aux:[ ("C", cg) ] k ~src ~dst;
  check_float "3 per point" 9.0 (Grid.checksum dst)

let interp_aux_product_falls_to_tree () =
  (* (C[p] * D[p]) * B[p] is a three-read product: a tree. *)
  let grid = Builder.def_tensor_1d ~halo:1 "B" Dtype.F64 3 in
  let c1 = Builder.coefficient_grid ~grid "C" in
  let c2 = Builder.coefficient_grid ~grid "D" in
  let k =
    Kernel.make ~aux:[ c1; c2 ] ~name:"TwoCoeff" ~input:grid ~index_vars:[ "i" ]
      Expr.(read "C" [| 0 |] * read "D" [| 0 |] * read "B" [| 0 |])
  in
  check_bool "tree fallback" true (Jit.chain_length k = None);
  let src = Grid.of_tensor grid and dst = Grid.of_tensor grid in
  let g1 = Grid.of_tensor c1 and g2 = Grid.of_tensor c2 in
  Grid.fill src (fun _ -> 2.0);
  Grid.fill g1 (fun _ -> 3.0);
  Grid.fill g2 (fun _ -> 5.0);
  interp_apply ~aux:[ ("C", g1); ("D", g2) ] k ~src ~dst;
  check_float "30 per point" 90.0 (Grid.checksum dst)

(* --- Runtime vs reference (compiled tree vs per-point tree walk) --- *)

let varcoef_matches_reference () =
  let _, _, st = fixture ~n:14 () in
  check_bool "bit-identical" true (Oracles.interp_matches_reference ~steps:4 st)

let varcoef_tiled_parallel_matches () =
  let k, _, st = fixture ~n:14 () in
  let sched = Schedule.matrix_canonical ~tile:[| 4; 6 |] ~threads:3 k in
  let pool = Msc_util.Domain_pool.create 3 in
  let r =
    Verify.check ~schedule:sched
      ~config:(Msc_exec.Exec.Config.make ~pool ())
      ~steps:4 st
  in
  check_bool "within tolerance" true r.Verify.ok

let varcoef_custom_aux_init () =
  let _, _, st = fixture ~n:10 () in
  let aux_init _name coord = 0.3 +. (0.01 *. float_of_int coord.(0)) in
  check_bool "custom coefficients verified" true
    (Oracles.interp_matches_reference ~aux_init ~steps:3 st)

let varcoef_aux_grids_exposed () =
  let _, _, st = fixture ~n:10 () in
  let rt = Runtime.create st in
  match Runtime.aux_grids rt with
  | [ (name, g) ] ->
      check_string "name" "C" name;
      (* fill_extended covered the halo too. *)
      check_bool "halo filled" true (Grid.get g [| -1; -1 |] <> 0.0)
  | _ -> Alcotest.fail "expected one aux grid"

let varcoef_mixed_with_states () =
  (* A damped wave over a heterogeneous medium: u[t] = 2u[t-1] - u[t-2] +
     VC(u[t-1]) exercises State terms and aux grids together. *)
  let grid = Builder.def_tensor_2d ~time_window:2 ~halo:1 "B" Dtype.F64 12 12 in
  let coeff = Builder.coefficient_grid ~grid "C" in
  let k = Builder.var_coeff_kernel ~name:"VC" ~coeff ~shape:Shapes.Star ~radius:1 grid in
  let st =
    Builder.(
      stencil ~name:"hetero_wave" ~grid
        ((1.6 *: state 1) -: (0.7 *: state 2) +: (0.1 *: (k @> 1))))
  in
  check_bool "bit-identical" true (Oracles.interp_matches_reference ~steps:5 st)

(* --- Distributed --- *)

let varcoef_distributed_exact () =
  let _, _, st = fixture ~n:14 () in
  check_float "bit-identical" 0.0
    (Msc_comm.Distributed.validate ~steps:4 ~ranks_shape:[| 2; 2 |] st)

let varcoef_distributed_uneven () =
  let _, _, st = fixture ~n:13 () in
  check_float "uneven blocks" 0.0
    (Msc_comm.Distributed.validate ~steps:3 ~ranks_shape:[| 3; 2 |] st)

(* --- Codegen --- *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.equal (String.sub haystack i n) needle || scan (i + 1)) in
  scan 0

let varcoef_cpu_source_structure () =
  let k, _, st = fixture () in
  let sched = Schedule.cpu_canonical ~tile:[| 4; 6 |] ~threads:2 k in
  let files = Codegen.generate st sched Codegen.Openmp in
  let src = (List.hd files).Codegen.contents in
  List.iter
    (fun needle -> check_bool needle true (contains ~needle src))
    [ "msc_init_aux_C"; "const ELEM *restrict C"; "C[IDX("; "free(C);" ]

let varcoef_roundtrip () =
  if Codegen.Toolchain.available () then begin
    let k, _, st = fixture ~n:14 () in
    let sched = Schedule.cpu_canonical ~tile:[| 5; 6 |] ~threads:2 k in
    let rt = Runtime.create st in
    Runtime.run rt 4;
    let expected = Grid.checksum (Runtime.current rt) in
    let files = Codegen.generate ~steps:4 st sched Codegen.Cpu in
    let dir = Filename.concat (Filename.get_temp_dir_name ()) "msc_test_varcoef" in
    match Codegen.Toolchain.compile_and_run ~steps:4 ~dir files with
    | Ok r ->
        let rel =
          Float.abs (r.Codegen.Toolchain.checksum -. expected)
          /. Float.max 1.0 (Float.abs expected)
        in
        check_bool "compiled C matches interpreter" true (rel < 1e-12)
    | Error msg -> Alcotest.fail msg
  end

let varcoef_athread_structure () =
  let k, _, st = fixture () in
  let sched = Schedule.sunway_canonical ~tile:[| 4; 6 |] k in
  let files = Codegen.generate st sched Codegen.Athread in
  let slave = List.find (fun f -> contains ~needle:"slave" f.Codegen.name) files in
  let master = List.find (fun f -> contains ~needle:"master" f.Codegen.name) files in
  check_bool "slave stages aux" true (contains ~needle:"buf_aux_C" slave.Codegen.contents);
  check_bool "master inits aux" true
    (contains ~needle:"msc_init_aux_C" master.Codegen.contents)

let varcoef_spm_accounting () =
  (* Two states + one coefficient grid = three staged buffers; a tile that
     fits two streams but not three must be rejected. *)
  let grid = Builder.def_tensor_2d ~time_window:2 ~halo:1 "B" Dtype.F64 128 128 in
  let coeff = Builder.coefficient_grid ~grid "C" in
  let k = Builder.var_coeff_kernel ~name:"VC" ~coeff ~shape:Shapes.Star ~radius:1 grid in
  let st = Builder.two_step ~name:"varcoef_big" k in
  (* padded tile (34x34) * 8B = 9248 B per stream; write 32*32*8 = 8192.
     3 streams: 35936 B (fits); tile 62x62: padded 64x64*8 = 32768 * 3 +
     30752 = 129 KB (overflows). *)
  let small = Schedule.sunway_canonical ~tile:[| 32; 32 |] k in
  let big = Schedule.sunway_canonical ~tile:[| 62; 62 |] k in
  (match Msc_sunway.Sim.simulate st small with
  | Ok r -> check_int "three streamed buffers" (3 * 34 * 34 * 8) r.Msc_sunway.Sim.counters.Msc_sunway.Sim.spm_read_bytes
  | Error msg -> Alcotest.fail msg);
  check_bool "overflow detected" true (Result.is_error (Msc_sunway.Sim.simulate st big))

let varcoef_pretty_declares_aux () =
  let _, _, st = fixture () in
  let src = Pretty.program st in
  check_bool "DefTensor for C" true (contains ~needle:"DefTensor2D(C, halo_width" src)

(* --- Property: compiled tree == per-point tree walk --- *)

let bilinear_vs_tree_property =
  qc ~count:20 "bilinear fast path equals tree evaluation"
    QCheck.(pair (int_range 1 2) (int_range 6 12))
    (fun (radius, n) ->
      let n = max n ((2 * radius) + 2) in
      let grid = Builder.def_tensor_2d ~time_window:1 ~halo:radius "B" Dtype.F64 n n in
      let coeff = Builder.coefficient_grid ~grid "C" in
      let k =
        Builder.var_coeff_kernel ~name:"VC" ~coeff ~shape:Shapes.Star ~radius grid
      in
      let st = Builder.single_step ~name:"vc" k in
      (* Runtime runs the closure-compiled tree; the oracle walks the tree
         with Expr.eval point by point. They agree bit for bit. *)
      Oracles.interp_matches_reference ~steps:2 st)

let suites =
  [
    ( "multigrid.ir",
      [
        tc "multi-grid kernel" kernel_reports_multi_grid;
        tc "counts all grids" kernel_counts_all_grids;
        tc "aux shape mismatch" aux_shape_mismatch_rejected;
        tc "unknown tensor" unknown_tensor_rejected;
        tc "aux halo checked" aux_offset_beyond_halo_rejected;
      ] );
    ( "multigrid.interp",
      [
        tc "bilinear detected" interp_bilinear_detected;
        tc "bilinear hand value" interp_bilinear_hand_value;
        tc "missing aux rejected" interp_missing_aux_rejected;
        tc "pure aux term" interp_pure_aux_term;
        tc "two-aux product -> tree" interp_aux_product_falls_to_tree;
      ] );
    ( "multigrid.runtime",
      [
        tc "matches reference" varcoef_matches_reference;
        tc "tiled parallel" varcoef_tiled_parallel_matches;
        tc "custom aux init" varcoef_custom_aux_init;
        tc "aux grids exposed" varcoef_aux_grids_exposed;
        tc "mixed with states" varcoef_mixed_with_states;
      ] );
    ( "multigrid.distributed",
      [
        tc "distributed exact" varcoef_distributed_exact;
        tc "uneven decomposition" varcoef_distributed_uneven;
      ] );
    ( "multigrid.codegen",
      [
        tc "cpu source structure" varcoef_cpu_source_structure;
        tc "roundtrip" varcoef_roundtrip;
        tc "athread structure" varcoef_athread_structure;
        tc "spm accounting" varcoef_spm_accounting;
        tc "pretty declares aux" varcoef_pretty_declares_aux;
      ] );
    ("multigrid.properties", [ bilinear_vs_tree_property ]);
  ]
