(* Shared fixtures and small assertion helpers for the test suite. *)

open Msc_frontend

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tc name fn = Alcotest.test_case name `Quick fn
let slow name fn = Alcotest.test_case name `Slow fn

let qc ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* A 3d7pt two-time-dependency stencil on a small grid. *)
let stencil_3d7pt ?(n = 12) ?(dtype = Msc_ir.Dtype.F64) () =
  let grid = Builder.def_tensor_3d ~time_window:2 ~halo:1 "B" dtype n n n in
  let k = Builder.star_kernel ~name:"S_3d7pt" ~radius:1 grid in
  (k, Builder.two_step ~name:"3d7pt_star" k)

(* A 2d9pt box stencil (corners matter for halo exchange). *)
let stencil_2d9pt_box ?(m = 14) ?(n = 18) () =
  let grid = Builder.def_tensor_2d ~time_window:2 ~halo:1 "B" Msc_ir.Dtype.F64 m n in
  let k = Builder.box_kernel ~name:"S_2d9pt" ~radius:1 grid in
  (k, Builder.two_step ~name:"2d9pt_box" k)

(* A wave-equation stencil exercising State terms. *)
let stencil_wave2d ?(n = 16) () =
  let grid = Builder.def_tensor_2d ~time_window:2 ~halo:1 "U" Msc_ir.Dtype.F64 n n in
  let lap =
    Builder.kernel ~name:"Lap" ~grid
      ~bindings:[ ("c", 0.2) ]
      Msc_ir.Expr.(
        p "c"
        * (read "U" [| -1; 0 |] + read "U" [| 1; 0 |] + read "U" [| 0; -1 |]
          + read "U" [| 0; 1 |]
          - (f 4.0 * read "U" [| 0; 0 |])))
  in
  Builder.(stencil ~name:"wave2d" ~grid ((2.0 *: state 1) -: state 2 +: (lap @> 1)))

(* Deterministic non-trivial initial condition. *)
let bumpy_init _dt coord =
  let acc = ref 1.0 in
  Array.iteri (fun d c -> acc := !acc +. (0.1 *. sin (float_of_int ((d + 2) * c)))) coord;
  !acc

(* [terms], each paired with its source grid, swept by
   [Interp.compile_sweep] over [lo, hi) (default: the interior) into [dst],
   with the aux slots resolved by name from [aux]. *)
let interp_sweep ?(aux = []) ?lo ?hi terms ~(dst : Msc_exec.Grid.t) =
  let module Grid = Msc_exec.Grid in
  let nd = Grid.ndim dst in
  let lo = Option.value lo ~default:(Array.make nd 0) in
  let hi = Option.value hi ~default:dst.Grid.shape in
  let sweep_terms = List.map fst terms in
  let slots =
    List.map
      (fun n -> (List.assoc n aux : Grid.t).Grid.data)
      (Msc_exec.Backend.sweep_aux_slots sweep_terms)
  in
  Msc_exec.Interp.compile_sweep ~geometry:dst sweep_terms
    (Array.of_list (List.map (fun (_, (g : Grid.t)) -> g.Grid.data) terms))
    dst.Grid.data (Array.of_list slots) lo hi

(* One kernel term [scale * K(src)] swept as the runtime sweeps a stage:
   the interpreter's checks on the grids and the range, then
   [interp_sweep]. *)
let interp_apply ?(aux = []) ?(scale = 1.0) ?lo ?hi kernel ~(src : Msc_exec.Grid.t) ~dst =
  let module Interp = Msc_exec.Interp in
  let c = Interp.compile kernel ~geometry:src in
  let lo = Option.value lo ~default:(Array.make (Array.length src.Msc_exec.Grid.shape) 0) in
  let hi = Option.value hi ~default:src.Msc_exec.Grid.shape in
  Interp.check_grids ~aux c ~src ~dst;
  Interp.check_range c ~lo ~hi;
  let term = Msc_exec.Backend.Sweep_kernel { scale; kernel; halo = src.Msc_exec.Grid.halo } in
  interp_sweep ~aux ~lo ~hi [ (term, src) ] ~dst
