(* Tests for boundary conditions (Dirichlet / periodic / reflect): the halo
   refresh itself, runtime-vs-reference agreement, conservation laws,
   distributed equivalence (including wrap-around exchanges), and compiled
   generated C. *)

open Helpers
open Msc_frontend
module Bc = Msc_exec.Bc
module Grid = Msc_exec.Grid
module Runtime = Msc_exec.Runtime
module Verify = Msc_exec.Verify
module Distributed = Msc_comm.Distributed
module Codegen = Msc_codegen.Codegen
module Schedule = Msc_schedule.Schedule

(* --- Bc.apply mechanics --- *)

let dirichlet_fills_constant () =
  let g = Grid.create ~shape:[| 3; 3 |] ~halo:[| 1; 1 |] in
  Grid.fill g (fun _ -> 9.0);
  Bc.apply (Bc.Dirichlet 2.5) g;
  check_float "face" 2.5 (Grid.get g [| -1; 0 |]);
  check_float "corner" 2.5 (Grid.get g [| -1; -1 |]);
  check_float "interior untouched" 9.0 (Grid.get g [| 1; 1 |])

let periodic_wraps () =
  let g = Grid.create ~shape:[| 4 |] ~halo:[| 2 |] in
  Grid.fill g (fun c -> float_of_int (c.(0) + 1));
  Bc.apply Bc.Periodic g;
  check_float "left wraps to right" 4.0 (Grid.get g [| -1 |]);
  check_float "left-2 wraps" 3.0 (Grid.get g [| -2 |]);
  check_float "right wraps to left" 1.0 (Grid.get g [| 4 |]);
  check_float "right+1 wraps" 2.0 (Grid.get g [| 5 |])

let periodic_corners_compose () =
  let g = Grid.create ~shape:[| 3; 3 |] ~halo:[| 1; 1 |] in
  Grid.fill g (fun c -> float_of_int ((c.(0) * 3) + c.(1)));
  Bc.apply Bc.Periodic g;
  (* corner (-1,-1) wraps to (2,2) = 8 *)
  check_float "corner wrap" 8.0 (Grid.get g [| -1; -1 |]);
  check_float "opposite corner" 0.0 (Grid.get g [| 3; 3 |])

let reflect_mirrors () =
  let g = Grid.create ~shape:[| 4 |] ~halo:[| 2 |] in
  Grid.fill g (fun c -> float_of_int (c.(0) + 1));
  Bc.apply Bc.Reflect g;
  check_float "-1 mirrors 0" 1.0 (Grid.get g [| -1 |]);
  check_float "-2 mirrors 1" 2.0 (Grid.get g [| -2 |]);
  check_float "n mirrors n-1" 4.0 (Grid.get g [| 4 |]);
  check_float "n+1 mirrors n-2" 3.0 (Grid.get g [| 5 |])

let masks_limit_application () =
  let g = Grid.create ~shape:[| 3 |] ~halo:[| 1 |] in
  Grid.fill g (fun c -> float_of_int c.(0));
  Grid.set g [| -1 |] 42.0;
  Grid.set g [| 3 |] 42.0;
  (* Only the high face is physical. *)
  Bc.apply ~low:[| false |] ~high:[| true |] (Bc.Dirichlet 0.0) g;
  check_float "low face untouched" 42.0 (Grid.get g [| -1 |]);
  check_float "high face applied" 0.0 (Grid.get g [| 3 |])

let wide_halo_rejected_for_wrap () =
  let g = Grid.create ~shape:[| 2 |] ~halo:[| 3 |] in
  check_bool "halo wider than interior" true
    (try Bc.apply Bc.Periodic g; false with Invalid_argument _ -> true)

(* A compiled refresh is a list of flat offsets for one geometry: running
   it on a grid with another halo (even with equal interior) or another
   shape is refused, never silently misaddressed. *)
let plan_geometry_guard () =
  let g = Grid.create ~shape:[| 4; 5 |] ~halo:[| 1; 1 |] in
  let p = Bc.compile Bc.Periodic g in
  Grid.fill g (fun c -> float_of_int ((c.(0) * 5) + c.(1)));
  Bc.run p g;
  check_float "runs on its own geometry" 19.0 (Grid.get g [| -1; -1 |]);
  let rejects other =
    try Bc.run p other; false with Invalid_argument _ -> true
  in
  check_bool "other halo" true (rejects (Grid.create ~shape:[| 4; 5 |] ~halo:[| 2; 1 |]));
  check_bool "other shape" true (rejects (Grid.create ~shape:[| 5; 4 |] ~halo:[| 1; 1 |]))

let mapped_coord_cases () =
  check_bool "in range id" true (Bc.mapped_coord Bc.Periodic ~extent:5 2 = Some 2);
  check_bool "dirichlet none" true (Bc.mapped_coord (Bc.Dirichlet 1.0) ~extent:5 (-1) = None);
  check_bool "periodic" true (Bc.mapped_coord Bc.Periodic ~extent:5 (-1) = Some 4);
  check_bool "reflect" true (Bc.mapped_coord Bc.Reflect ~extent:5 6 = Some 3)

(* --- Runtime vs reference under each BC --- *)

let runtime_matches_reference_under_bcs () =
  List.iter
    (fun bc ->
      let _, st = stencil_3d7pt ~n:10 () in
      check_bool (Format.asprintf "%a" Bc.pp bc) true
        (Oracles.interp_matches_reference ~bc ~steps:4 st))
    [ Bc.Dirichlet 0.0; Bc.Dirichlet 1.0; Bc.Periodic; Bc.Reflect ]

let periodic_conserves_mass () =
  (* Weights sum to 1 and the domain is closed: the interior sum is exactly
     conserved under a periodic single-step stencil. *)
  let grid = Builder.def_tensor_2d ~time_window:1 ~halo:1 "B" Msc_ir.Dtype.F64 12 12 in
  let k = Builder.star_kernel ~name:"S" ~radius:1 grid in
  let st = Builder.single_step ~name:"mass" k in
  let rt = Runtime.create ~bc:Bc.Periodic ~init:bumpy_init st in
  let before = Grid.checksum (Runtime.current rt) in
  Runtime.run rt 10;
  let after = Grid.checksum (Runtime.current rt) in
  check_bool "sum conserved" true (Float.abs (before -. after) < 1e-9 *. Float.abs before)

let dirichlet_leaks_mass () =
  (* Zero boundaries absorb: the sum must strictly decrease. *)
  let grid = Builder.def_tensor_2d ~time_window:1 ~halo:1 "B" Msc_ir.Dtype.F64 12 12 in
  let k = Builder.star_kernel ~name:"S" ~radius:1 grid in
  let st = Builder.single_step ~name:"leak" k in
  let rt = Runtime.create ~bc:(Bc.Dirichlet 0.0) ~init:(fun _ _ -> 1.0) st in
  let before = Grid.checksum (Runtime.current rt) in
  Runtime.run rt 10;
  check_bool "mass lost at boundary" true (Grid.checksum (Runtime.current rt) < before)

let reflect_conserves_mass () =
  (* Zero-flux mirrors also conserve the sum for a symmetric stencil. *)
  let grid = Builder.def_tensor_2d ~time_window:1 ~halo:1 "B" Msc_ir.Dtype.F64 12 12 in
  let k = Builder.star_kernel ~name:"S" ~radius:1 grid in
  let st = Builder.single_step ~name:"flux" k in
  let rt = Runtime.create ~bc:Bc.Reflect ~init:bumpy_init st in
  let before = Grid.checksum (Runtime.current rt) in
  Runtime.run rt 10;
  let after = Grid.checksum (Runtime.current rt) in
  check_bool "sum conserved" true (Float.abs (before -. after) < 1e-9 *. Float.abs before)

let bcs_differ () =
  (* Conservative BCs can share the same total mass, so compare the fields
     pointwise rather than by checksum. *)
  let mk bc =
    let _, st = stencil_2d9pt_box ~m:10 ~n:10 () in
    let rt = Runtime.create ~bc ~init:bumpy_init st in
    Runtime.run rt 4;
    Runtime.current rt
  in
  let d = mk (Bc.Dirichlet 0.0) and p = mk Bc.Periodic and r = mk Bc.Reflect in
  check_bool "dirichlet <> periodic" true (Grid.max_rel_error ~reference:d p > 1e-9);
  check_bool "periodic <> reflect" true (Grid.max_rel_error ~reference:p r > 1e-9)

(* --- Distributed --- *)

let distributed_bcs_exact () =
  List.iter
    (fun (bc, shape) ->
      let _, st = stencil_3d7pt ~n:12 () in
      let err = Distributed.validate ~bc ~steps:4 ~ranks_shape:shape st in
      check_float (Format.asprintf "%a" Bc.pp bc) 0.0 err)
    [
      (Bc.Dirichlet 0.5, [| 2; 2; 2 |]);
      (Bc.Reflect, [| 2; 2; 2 |]);
      (Bc.Periodic, [| 2; 2; 2 |]);
      (Bc.Periodic, [| 1; 2; 2 |]) (* self-wrap along dimension 0 *);
    ]

let distributed_periodic_box_corners () =
  let _, st = stencil_2d9pt_box ~m:12 ~n:16 () in
  check_float "wrap + corners" 0.0
    (Distributed.validate ~bc:Bc.Periodic ~steps:4 ~ranks_shape:[| 2; 2 |] st)

let distributed_periodic_message_count () =
  (* Every rank has a neighbour in every direction under wrap-around. *)
  let _, st = stencil_3d7pt ~n:12 () in
  let dist = Distributed.create ~bc:Bc.Periodic ~ranks_shape:[| 2; 2; 2 |] st in
  let mpi = Distributed.mpi dist in
  let before = Msc_comm.Mpi_sim.messages_sent mpi in
  Distributed.step dist;
  (* 8 ranks x 6 faces, none missing. *)
  check_int "48 messages" (before + 48) (Msc_comm.Mpi_sim.messages_sent mpi)

(* --- Codegen --- *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.equal (String.sub haystack i n) needle || scan (i + 1)) in
  scan 0

let codegen_emits_bc () =
  let k, st = stencil_2d9pt_box ~m:12 ~n:12 () in
  let sched = Schedule.cpu_canonical ~tile:[| 4; 6 |] ~threads:2 k in
  let src bc =
    (List.hd (Codegen.generate ~bc st sched Codegen.Cpu)).Codegen.contents
  in
  check_bool "trivial bc: no pass" false (contains ~needle:"msc_apply_bc" (src (Bc.Dirichlet 0.0)));
  check_bool "periodic pass" true (contains ~needle:"msc_apply_bc" (src Bc.Periodic));
  check_bool "reflect mapping" true (contains ~needle:"2 * N0" (src Bc.Reflect))

let codegen_bc_roundtrip bc () =
  if Codegen.Toolchain.available () then begin
    let k, st = stencil_2d9pt_box ~m:12 ~n:14 () in
    let sched = Schedule.cpu_canonical ~tile:[| 5; 6 |] ~threads:2 k in
    let rt = Runtime.create ~bc st in
    Runtime.run rt 4;
    let expected = Grid.checksum (Runtime.current rt) in
    let files = Codegen.generate ~steps:4 ~bc st sched Codegen.Cpu in
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "msc_test_bc_%s" (Format.asprintf "%a" Bc.pp bc))
    in
    match Codegen.Toolchain.compile_and_run ~steps:4 ~dir files with
    | Ok r ->
        let rel =
          Float.abs (r.Codegen.Toolchain.checksum -. expected)
          /. Float.max 1.0 (Float.abs expected)
        in
        check_bool "compiled C matches interpreter" true (rel < 1e-12)
    | Error msg -> Alcotest.fail msg
  end

let athread_rejects_nontrivial_bc () =
  let k, st = stencil_3d7pt ~n:12 () in
  let sched = Schedule.sunway_canonical ~tile:[| 2; 4; 6 |] k in
  check_bool "rejected with clear error" true
    (try ignore (Codegen.generate ~bc:Bc.Periodic st sched Codegen.Athread); false
     with Invalid_argument _ -> true)

(* --- Property: compiled run plans == per-cell reference walker ---
   [Bc.apply] compiles a plan and runs it; the oracle is the
   cell-at-a-time walker in [Oracles]. *)

let fast_apply_matches_reference =
  qc ~count:200 "Bc.apply == Bc.apply_reference on random geometry"
    QCheck.(
      quad (int_range 1 3) (int_range 0 2) (int_range 0 3)
        (pair small_int small_int))
    (fun (nd, which, seed, (mask_bits, shape_seed)) ->
      let bc =
        match which with
        | 0 -> Bc.Dirichlet 1.25
        | 1 -> Bc.Periodic
        | _ -> Bc.Reflect
      in
      let shape =
        Array.init nd (fun d -> 2 + ((shape_seed + (3 * d) + seed) mod 6))
      in
      (* Periodic/Reflect require halo <= extent. *)
      let halo = Array.map (fun n -> 1 + ((n - 1) mod 3)) shape in
      let mask i = Array.init nd (fun d -> (mask_bits lsr (i + (2 * d))) land 1 = 1) in
      let low = mask 0 and high = mask 1 in
      let fill g =
        Grid.fill_all g 0.0;
        Grid.fill g (fun c ->
            float_of_int
              (Array.fold_left ( + ) seed (Array.mapi (fun d x -> (d + 2) * x) c))
            *. 0.125)
      in
      let a = Grid.create ~shape ~halo in
      let b = Grid.create ~shape ~halo in
      fill a;
      fill b;
      Bc.apply ~low ~high bc a;
      Oracles.bc_apply ~low ~high bc b;
      a.Grid.data = b.Grid.data)

let bc_property =
  qc ~count:15 "runtime == reference under random BCs and tiles"
    QCheck.(triple (int_range 0 2) (int_range 2 7) (int_range 2 7))
    (fun (which, tx, ty) ->
      let bc =
        match which with
        | 0 -> Bc.Dirichlet 0.7
        | 1 -> Bc.Periodic
        | _ -> Bc.Reflect
      in
      let k, st = stencil_2d9pt_box ~m:9 ~n:11 () in
      let sched = Schedule.matrix_canonical ~tile:[| tx; ty |] ~threads:2 k in
      (Verify.check ~schedule:sched ~bc ~steps:3 st).Verify.max_rel_error = 0.0)

let suites =
  [
    ( "bc.apply",
      [
        tc "dirichlet constant" dirichlet_fills_constant;
        tc "periodic wraps" periodic_wraps;
        tc "periodic corners" periodic_corners_compose;
        tc "reflect mirrors" reflect_mirrors;
        tc "masks" masks_limit_application;
        tc "wide halo rejected" wide_halo_rejected_for_wrap;
        tc "mapped coord" mapped_coord_cases;
        tc "plan geometry guard" plan_geometry_guard;
        fast_apply_matches_reference;
      ] );
    ( "bc.runtime",
      [
        tc "matches reference (all BCs)" runtime_matches_reference_under_bcs;
        tc "periodic conserves mass" periodic_conserves_mass;
        tc "dirichlet leaks mass" dirichlet_leaks_mass;
        tc "reflect conserves mass" reflect_conserves_mass;
        tc "BCs actually differ" bcs_differ;
      ] );
    ( "bc.distributed",
      [
        tc "exact under all BCs" distributed_bcs_exact;
        tc "periodic box corners" distributed_periodic_box_corners;
        tc "periodic message count" distributed_periodic_message_count;
      ] );
    ( "bc.codegen",
      [
        tc "emission" codegen_emits_bc;
        tc "dirichlet(1) roundtrip" (codegen_bc_roundtrip (Bc.Dirichlet 1.0));
        tc "periodic roundtrip" (codegen_bc_roundtrip Bc.Periodic);
        tc "reflect roundtrip" (codegen_bc_roundtrip Bc.Reflect);
        tc "athread rejects" athread_rejects_nontrivial_bc;
      ] );
    ("bc.properties", [ bc_property ]);
  ]
