(* Tests for the execution engine: grids, the kernel interpreter, the
   sliding-window runtime, the interpreter against the naive [Expr.eval]
   oracle, and the verifier. *)

open Helpers
module Grid = Msc_exec.Grid
module Interp = Msc_exec.Interp
module Backend = Msc_exec.Backend
module Jit = Msc_exec.Jit
module Runtime = Msc_exec.Runtime
module Verify = Msc_exec.Verify
module Bc = Msc_exec.Bc
open Msc_ir
open Msc_frontend

(* --- Grid --- *)

let grid_basics () =
  let g = Grid.create ~shape:[| 3; 4 |] ~halo:[| 1; 2 |] in
  check_int "interior" 12 (Grid.interior_elems g);
  Alcotest.(check (array int)) "padded" [| 5; 8 |] g.Grid.padded;
  Grid.set g [| 0; 0 |] 5.0;
  check_float "get/set" 5.0 (Grid.get g [| 0; 0 |])

let grid_halo_addressable () =
  let g = Grid.create ~shape:[| 4; 4 |] ~halo:[| 1; 1 |] in
  Grid.set g [| -1; -1 |] 2.5;
  Grid.set g [| 4; 4 |] 3.5;
  check_float "corner -1" 2.5 (Grid.get g [| -1; -1 |]);
  check_float "corner +1" 3.5 (Grid.get g [| 4; 4 |])

let grid_fill_and_checksum () =
  let g = Grid.create ~shape:[| 2; 3 |] ~halo:[| 1; 1 |] in
  Grid.fill g (fun c -> float_of_int ((c.(0) * 3) + c.(1)));
  check_float "sum 0..5" 15.0 (Grid.checksum g);
  check_float "max abs" 5.0 (Grid.max_abs g)

(* The row walk against the recursive one: the same [init] calls, with the
   same coordinates in the same order, and the same bits in every cell
   (halo included). Each value depends on the call count, so any
   reordering shows. A fill split into two row ranges at [cut] must make
   the whole fill's calls. *)
let fill_walk_property =
  let small = QCheck.Gen.(array_size (return 3) (int_range 1 5)) in
  let halos = QCheck.Gen.(array_size (return 3) (int_range 0 2)) in
  qc ~count:200 "row walk == recursive walk (calls and bits)"
    (QCheck.make QCheck.Gen.(quad (int_range 1 3) small halos (int_range 0 5)))
    (fun (nd, shape, halo, cut) ->
      let shape = Array.sub shape 0 nd and halo = Array.sub halo 0 nd in
      let cut = min cut shape.(0) in
      let split g f =
        Grid.fill ~rows:(0, cut) g f;
        Grid.fill ~rows:(cut, shape.(0)) g f
      in
      let run fill =
        let g = Grid.create ~shape ~halo in
        Grid.fill_all g (-1.0);
        let calls = ref [] in
        fill g (fun c ->
            calls := Array.copy c :: !calls;
            (0.25 *. float_of_int (List.length !calls)) +. float_of_int c.(nd - 1));
        (List.rev !calls, Array.map Int64.bits_of_float g.Grid.data)
      in
      let interior = run (Oracles.fill_walk ~extended:false) in
      run (fun g f -> Grid.fill g f) = interior
      && run split = interior
      && run Grid.fill_extended = run (Oracles.fill_walk ~extended:true))

let grid_clear_halo () =
  let g = Grid.create ~shape:[| 2; 2 |] ~halo:[| 1; 1 |] in
  Grid.fill_all g 7.0;
  Grid.clear_halo g;
  check_float "interior kept" 7.0 (Grid.get g [| 0; 0 |]);
  check_float "halo zeroed" 0.0 (Grid.get g [| -1; 0 |]);
  check_float "checksum = interior only" 28.0 (Grid.checksum g)

let grid_blit_interior () =
  let a = Grid.create ~shape:[| 3; 3 |] ~halo:[| 1; 1 |] in
  let b = Grid.create ~shape:[| 3; 3 |] ~halo:[| 2; 2 |] in
  Grid.fill a (fun c -> float_of_int (c.(0) + c.(1)));
  Grid.blit_interior ~src:a ~dst:b;
  check_float "copied" (Grid.checksum a) (Grid.checksum b)

let grid_max_rel_error () =
  let a = Grid.create ~shape:[| 2 |] ~halo:[| 0 |] in
  let b = Grid.create ~shape:[| 2 |] ~halo:[| 0 |] in
  Grid.set a [| 0 |] 2.0;
  Grid.set b [| 0 |] 2.002;
  check_bool "about 1e-3" true
    (Float.abs (Grid.max_rel_error ~reference:a b -. 1e-3) < 1e-9)

let grid_validation () =
  check_bool "bad extent" true
    (try ignore (Grid.create ~shape:[| 0 |] ~halo:[| 0 |]); false
     with Invalid_argument _ -> true);
  check_bool "rank mismatch" true
    (try ignore (Grid.create ~shape:[| 2; 2 |] ~halo:[| 1 |]); false
     with Invalid_argument _ -> true)

let grid_of_tensor () =
  let t = Tensor.sp ~halo:[| 2; 1 |] "B" Dtype.F64 [| 4; 6 |] in
  let g = Grid.of_tensor t in
  Alcotest.(check (array int)) "shape" [| 4; 6 |] g.Grid.shape;
  Alcotest.(check (array int)) "halo" [| 2; 1 |] g.Grid.halo

(* --- Interp --- *)

let interp_identity () =
  let grid = Builder.def_tensor_2d ~halo:1 "B" Dtype.F64 4 4 in
  let k = Builder.kernel ~name:"Id" ~grid (Expr.read "B" [| 0; 0 |]) in
  check_bool "one-product chain" true (Jit.chain_length k = Some 1);
  let src = Grid.of_tensor grid and dst = Grid.of_tensor grid in
  Grid.fill src (fun coord -> float_of_int ((coord.(0) * 4) + coord.(1)));
  interp_apply k ~src ~dst;
  check_float "identity" (Grid.checksum src) (Grid.checksum dst)

let interp_shift_reads_halo () =
  let grid = Builder.def_tensor_1d ~halo:1 "B" Dtype.F64 4 in
  let k = Builder.kernel ~name:"Shift" ~grid (Expr.read "B" [| 1 |]) in
  let src = Grid.of_tensor grid and dst = Grid.of_tensor grid in
  Grid.fill src (fun coord -> float_of_int coord.(0) +. 1.0);
  interp_apply k ~src ~dst;
  (* dst[i] = src[i+1]; src[3+1] is halo = 0 *)
  check_float "dst0" 2.0 (Grid.get dst [| 0 |]);
  check_float "dst3 reads zero halo" 0.0 (Grid.get dst [| 3 |])

let interp_laplacian_hand_value () =
  let grid = Builder.def_tensor_2d ~halo:1 "B" Dtype.F64 3 3 in
  let k =
    Builder.kernel ~name:"Lap" ~grid
      Expr.(
        read "B" [| -1; 0 |] + read "B" [| 1; 0 |] + read "B" [| 0; -1 |]
        + read "B" [| 0; 1 |]
        - (f 4.0 * read "B" [| 0; 0 |]))
  in
  let src = Grid.of_tensor grid and dst = Grid.of_tensor grid in
  Grid.fill src (fun coord -> float_of_int ((coord.(0) * 3) + coord.(1)));
  interp_apply k ~src ~dst;
  (* centre point (1,1)=4: 1 + 7 + 3 + 5 - 16 = 0 *)
  check_float "laplacian of linear field" 0.0 (Grid.get dst [| 1; 1 |])

let interp_accumulate () =
  let grid = Builder.def_tensor_1d ~halo:1 "B" Dtype.F64 3 in
  let k = Builder.kernel ~name:"Id" ~grid (Expr.read "B" [| 0 |]) in
  let geometry = Grid.of_tensor grid in
  let src = Grid.of_tensor grid and dst = Grid.of_tensor grid in
  Grid.fill src (fun _ -> 2.0);
  Grid.fill dst (fun _ -> 1.0);
  (* dst + 0.5 * K(src) is the fold of a State term over dst's values. *)
  let prev = Grid.copy dst in
  interp_sweep
    [
      (Backend.Sweep_state { scale = 1.0 }, prev);
      (Backend.Sweep_kernel { scale = 0.5; kernel = k; halo = geometry.Grid.halo }, src);
    ]
    ~dst;
  check_float "1 + 0.5*2" 2.0 (Grid.get dst [| 1 |])

let interp_range_subbox () =
  let grid = Builder.def_tensor_2d ~halo:1 "B" Dtype.F64 4 4 in
  let k = Builder.kernel ~name:"Id" ~grid (Expr.read "B" [| 0; 0 |]) in
  let src = Grid.of_tensor grid and dst = Grid.of_tensor grid in
  Grid.fill src (fun _ -> 3.0);
  interp_apply k ~src ~dst ~lo:[| 1; 1 |] ~hi:[| 3; 3 |];
  check_float "inside" 3.0 (Grid.get dst [| 2; 2 |]);
  check_float "outside untouched" 0.0 (Grid.get dst [| 0; 0 |])

let interp_nonlinear_tree_path () =
  let grid = Builder.def_tensor_1d ~halo:1 "B" Dtype.F64 4 in
  let k =
    Builder.kernel ~name:"Sq" ~grid Expr.(read "B" [| 0 |] * read "B" [| 0 |])
  in
  check_bool "an a*x product" true (Jit.chain_length k = Some 1);
  let src = Grid.of_tensor grid and dst = Grid.of_tensor grid in
  Grid.fill src (fun coord -> float_of_int (coord.(0) + 1));
  interp_apply k ~src ~dst;
  check_float "squares" (1.0 +. 4.0 +. 9.0 +. 16.0) (Grid.checksum dst)

let interp_rejects_aliasing () =
  let grid = Builder.def_tensor_1d ~halo:1 "B" Dtype.F64 4 in
  let k = Builder.kernel ~name:"Id" ~grid (Expr.read "B" [| 0 |]) in
  let geometry = Grid.of_tensor grid in
  let c = Interp.compile k ~geometry in
  let g = Grid.of_tensor grid in
  check_bool "alias rejected" true
    (try Interp.check_grids c ~src:g ~dst:g; false with Invalid_argument _ -> true)

(* Equal shape and strides are not equal geometry: an 8x8 grid with halo
   [3;1] and one with halo [1;1] both have strides [10;1], but the sweep
   indexes with the compiled halo, so a mismatched grid must be refused
   (it would be read out of bounds, or at shifted positions for aux). *)
let interp_rejects_halo_mismatch () =
  let grid = Builder.def_tensor_2d ~halo:1 "B" Dtype.F64 8 8 in
  let k = Builder.star_kernel ~name:"S" ~radius:1 grid in
  let deep = Grid.create ~shape:[| 8; 8 |] ~halo:[| 3; 1 |] in
  let thin = Grid.of_tensor grid in
  check_bool "same strides" true (deep.Grid.strides = thin.Grid.strides);
  let raises f = try f (); false with Invalid_argument _ -> true in
  let c = Interp.compile k ~geometry:deep in
  check_bool "src/dst halo checked" true
    (raises (fun () -> Interp.check_grids c ~src:(Grid.like thin) ~dst:(Grid.like thin)));
  check_bool "src/dst guard checks halo" true
    (raises (fun () -> Interp.check_grids c ~src:(Grid.like thin) ~dst:(Grid.like deep)));
  let coeff = Builder.coefficient_grid ~grid "C" in
  let kc =
    Kernel.make ~aux:[ coeff ] ~name:"CB" ~input:grid ~index_vars:[ "j"; "i" ]
      Expr.(read "C" [| 0; 0 |] * read "B" [| 0; 0 |])
  in
  let cc = Interp.compile kc ~geometry:thin in
  let aux = [ ("C", Grid.like deep) ] in
  check_bool "aux halo checked" true
    (raises (fun () -> Interp.check_grids ~aux cc ~src:(Grid.like thin) ~dst:(Grid.like thin)));
  check_bool "aux guard checks halo" true
    (raises (fun () -> Interp.check_grids ~aux cc ~src:(Grid.like thin) ~dst:(Grid.like thin)));
  check_bool "identity halo checked" true
    (raises (fun () -> Interp.check_state ~src:(Grid.like thin) ~dst:(Grid.like deep)))

(* --- Runtime --- *)

let runtime_matches_reference () =
  let _, st = stencil_3d7pt ~n:10 () in
  check_bool "bit-identical" true (Oracles.interp_matches_reference ~steps:4 st)

let runtime_tiled_parallel_matches () =
  let k, st = stencil_3d7pt ~n:10 () in
  let sched = Msc_schedule.Schedule.matrix_canonical ~tile:[| 3; 4; 5 |] ~threads:4 k in
  let pool = Msc_util.Domain_pool.create 4 in
  let r =
    Verify.check ~schedule:sched
      ~config:(Msc_exec.Exec.Config.make ~pool ())
      ~steps:4 st
  in
  check_bool "bit-identical" true (r.Verify.max_rel_error = 0.0)

let runtime_athread_mapping_matches () =
  let k, st = stencil_3d7pt ~n:10 () in
  let sched = Msc_schedule.Schedule.sunway_canonical ~tile:[| 2; 5; 5 |] ~cpes:8 k in
  let pool = Msc_util.Domain_pool.create 4 in
  let r =
    Verify.check ~schedule:sched
      ~config:(Msc_exec.Exec.Config.make ~pool ())
      ~steps:3 st
  in
  check_bool "round-robin identical" true (r.Verify.max_rel_error = 0.0)

let runtime_wave_matches () =
  (* State terms and a two-state window: the interpreter sums the flat
     terms in the tree's order, so it matches the oracle exactly. *)
  let st = stencil_wave2d ~n:12 () in
  check_bool "bit-identical" true (Oracles.interp_matches_reference ~steps:6 st)

let runtime_sliding_window_long_run () =
  (* The ring buffer must keep working far beyond the window length. *)
  let _, st = stencil_3d7pt ~n:6 () in
  check_bool "after 15 steps" true (Oracles.interp_matches_reference ~steps:15 st)

let runtime_state_accessors () =
  let _, st = stencil_3d7pt ~n:6 () in
  let rt = Runtime.create st in
  check_int "window" 2 (Runtime.time_window rt);
  let before = Grid.checksum (Runtime.current rt) in
  Runtime.step rt;
  (* The previous newest state becomes dt=2. *)
  check_float "states slide" before (Grid.checksum (Runtime.state rt ~dt:2));
  check_int "steps counted" 1 (Runtime.steps_done rt)

let runtime_state_bounds () =
  let _, st = stencil_3d7pt ~n:6 () in
  let rt = Runtime.create st in
  check_bool "dt=0 rejected" true
    (try ignore (Runtime.state rt ~dt:0); false with Invalid_argument _ -> true);
  check_bool "dt=3 rejected" true
    (try ignore (Runtime.state rt ~dt:3); false with Invalid_argument _ -> true)

let runtime_stability () =
  (* two_step with contraction weights must stay bounded. *)
  let _, st = stencil_3d7pt ~n:8 () in
  let rt = Runtime.create st in
  Runtime.run rt 50;
  check_bool "bounded" true (Grid.max_abs (Runtime.current rt) < 10.0)

let runtime_custom_init () =
  let _, st = stencil_3d7pt ~n:6 () in
  let rt = Runtime.create ~init:(fun _ _ -> 1.0) st in
  (* weights sum to 1 and halo is zero, so interior away from the border
     stays 1 after a step; centre point check: *)
  Runtime.step rt;
  check_float "centre stays 1" 1.0 (Grid.get (Runtime.current rt) [| 3; 3; 3 |])

(* A constant Dirichlet halo is written once per window slot, not once per
   step: with a non-zero value, every state over more than W+1 rotations
   (each slot reused at least twice, the spare's first use included) must
   still equal the reference's, halo cells included, on both backends. *)
let runtime_dirichlet_halo_once () =
  let bc = Bc.Dirichlet 0.75 in
  List.iter
    (fun st ->
      List.iter
        (fun backend ->
          let rt = Runtime.create ~config:(Msc_exec.Exec.Config.make ~backend ()) ~bc st in
          let naive = Oracles.Reference.create ~bc st in
          for step = 1 to (3 * (Runtime.time_window rt + 1)) + 1 do
            Runtime.step rt;
            Oracles.Reference.step naive;
            check_bool
              (Printf.sprintf "%s on %s, step %d" st.Stencil.name
                 (Backend.to_string backend) step)
              true
              ((Runtime.current rt).Grid.data = (Oracles.Reference.current naive).Grid.data)
          done)
        Backend.all)
    [ stencil_wave2d ~n:10 (); snd (stencil_3d7pt ~n:6 ()) ]

let verify_detects_mismatch () =
  (* Feed the verifier two different initial conditions via a tampered run. *)
  let _, st = stencil_3d7pt ~n:6 () in
  let rt = Runtime.create st in
  Runtime.run rt 2;
  let g = Runtime.current rt in
  let tampered = Grid.copy g in
  Grid.set tampered [| 2; 2; 2 |] (Grid.get g [| 2; 2; 2 |] +. 1.0);
  check_bool "error detected" true (Grid.max_rel_error ~reference:g tampered > 0.1)

(* The interpreter is Verify's oracle, so it is pinned here to the
   independent per-point [Expr.eval] walker, bit for bit: every suite
   kernel, State terms over a time window of 2 (wave2d) and a
   coefficient-grid kernel, under every boundary condition. *)
let oracle_matches_interp () =
  let module Suite = Msc_benchsuite.Suite in
  let coeff_grid = Builder.def_tensor_2d ~time_window:2 ~halo:1 "B" Dtype.F64 11 13 in
  let varcoef =
    Builder.two_step ~name:"varcoef"
      (Builder.var_coeff_kernel ~name:"VC"
         ~coeff:(Builder.coefficient_grid ~grid:coeff_grid "C")
         ~shape:Shapes.Star ~radius:1 coeff_grid)
  in
  let small (b : Suite.bench) =
    Suite.stencil ~dims:(if b.Suite.ndim = 2 then [| 14; 18 |] else [| 10; 12; 11 |]) b
  in
  List.iter
    (fun (st : Stencil.t) ->
      List.iter
        (fun bc ->
          check_bool
            (Format.asprintf "%s under %a" st.Stencil.name Bc.pp bc)
            true
            (Oracles.interp_matches_reference ~bc ~steps:3 st))
        [ Bc.Dirichlet 0.0; Bc.Dirichlet 1.5; Bc.Periodic; Bc.Reflect ])
    (List.map small Suite.all @ [ stencil_wave2d ~n:12 (); varcoef ])

let schedule_equivalence_property =
  qc ~count:20 "any legal 2-D tile gives identical results"
    QCheck.(pair (int_range 1 9) (int_range 1 9))
    (fun (tx, ty) ->
      let k, st = stencil_2d9pt_box ~m:9 ~n:9 () in
      let sched = Msc_schedule.Schedule.matrix_canonical ~tile:[| tx; ty |] ~threads:2 k in
      let r = Verify.check ~schedule:sched ~steps:3 st in
      r.Verify.max_rel_error = 0.0)

let suites =
  [
    ( "exec.grid",
      [
        tc "basics" grid_basics;
        tc "halo addressable" grid_halo_addressable;
        tc "fill/checksum" grid_fill_and_checksum;
        fill_walk_property;
        tc "clear halo" grid_clear_halo;
        tc "blit interior" grid_blit_interior;
        tc "max rel error" grid_max_rel_error;
        tc "validation" grid_validation;
        tc "of tensor" grid_of_tensor;
      ] );
    ( "exec.interp",
      [
        tc "identity" interp_identity;
        tc "shift reads halo" interp_shift_reads_halo;
        tc "laplacian hand value" interp_laplacian_hand_value;
        tc "accumulate" interp_accumulate;
        tc "range subbox" interp_range_subbox;
        tc "nonlinear tree path" interp_nonlinear_tree_path;
        tc "aliasing rejected" interp_rejects_aliasing;
        tc "halo mismatch rejected" interp_rejects_halo_mismatch;
      ] );
    ( "exec.runtime",
      [
        tc "matches reference" runtime_matches_reference;
        tc "tiled parallel matches" runtime_tiled_parallel_matches;
        tc "athread mapping matches" runtime_athread_mapping_matches;
        tc "wave matches" runtime_wave_matches;
        tc "long sliding window" runtime_sliding_window_long_run;
        tc "state accessors" runtime_state_accessors;
        tc "state bounds" runtime_state_bounds;
        tc "stability" runtime_stability;
        tc "custom init" runtime_custom_init;
        tc "constant Dirichlet halo once per slot" runtime_dirichlet_halo_once;
        tc "verify detects mismatch" verify_detects_mismatch;
      ] );
    ( "exec.properties",
      [
        schedule_equivalence_property;
        tc "oracle == interp runtime bit for bit" oracle_matches_interp;
      ] );
  ]
