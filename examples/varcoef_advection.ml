(* Variable-coefficient stencils: the multi-grid case the paper's §5.6
   discussion motivates with WRF's advect/advect_mono and POP2's
   hdifft/vdifft kernels — "the above stencils commonly require more than one
   input grid, along with their coefficient grids."

   Here: heat diffusion through a heterogeneous medium. The diffusivity
   C(x, y) is a static coefficient grid with a low-conductivity wall down
   the middle and a gap in it; the evolving field B flows through the gap.

   Run with: dune exec examples/varcoef_advection.exe (exits 1 if a
   verification fails) *)

open Msc

let n = 64

let () =
  let grid = Builder.def_tensor_2d ~time_window:1 ~halo:1 "B" Dtype.F64 n n in
  let coeff = Builder.coefficient_grid ~grid "C" in
  let kernel =
    Builder.var_coeff_kernel ~name:"VC_diffuse" ~coeff ~shape:Shapes.Star
      ~radius:1 grid
  in
  let st = Builder.single_step ~name:"hetero_heat" kernel in
  Format.printf "%a@." Kernel.pp kernel;
  Printf.printf "multi-grid kernel: %b (aux: C)\n\n" (Kernel.is_multi_grid kernel);

  (* Diffusivity field: conductive everywhere (1.0) except a wall at
     column n/2 (0.01) with a gap in rows [28, 36). *)
  let aux_init _name coord =
    let i, j = (coord.(0), coord.(1)) in
    if j = n / 2 && not (i >= 28 && i < 36) then 0.01 else 1.0
  in
  (* Heat source on the left edge. *)
  let init _dt coord = if coord.(1) < 3 then 1.0 else 0.0 in

  (* The tiled runtime, on the interpreter and on compiled C, must agree
     with the untiled, sequential interpreter; exit 1 on a FAIL. *)
  let schedule = Schedule.matrix_canonical ~tile:[| 8; 16 |] ~threads:4 kernel in
  List.iter
    (fun backend ->
      let config = Exec.Config.make ~backend () in
      let report = Verify.check ~schedule ~config ~init ~aux_init ~steps:10 st in
      Format.printf "%a@." Verify.pp_report report;
      if not report.Verify.ok then exit 1)
    Backend.all;
  print_newline ();

  let rt = Runtime.create ~schedule ~init ~aux_init st in
  Runtime.run rt 400;
  let g = Runtime.current rt in

  (* Render: heat must have leaked through the gap but not the wall. *)
  print_endline "temperature field after 400 steps ('#' hot .. ' ' cold, '|' wall):";
  for row = 0 to 31 do
    for col = 0 to 63 do
      let i = row * n / 32 and j = col in
      let v = Grid.get g [| i; j |] in
      let c =
        if j = n / 2 && not (i >= 28 && i < 36) then '|'
        else if v > 0.2 then '#'
        else if v > 0.05 then '+'
        else if v > 0.005 then '.'
        else ' '
      in
      print_char c
    done;
    print_newline ()
  done;
  let right_of_wall_gap = Grid.get g [| 31; (n / 2) + 4 |] in
  let right_of_wall_blocked = Grid.get g [| 4; (n / 2) + 4 |] in
  Printf.printf
    "\nbehind the gap: %.4f   behind the wall: %.4f   -> %s\n"
    right_of_wall_gap right_of_wall_blocked
    (if right_of_wall_gap > 4.0 *. right_of_wall_blocked then
       "heat flows through the gap only (as physics demands)"
     else "unexpected");

  (* The same stencil compiles to C with the coefficient grid as an extra
     parameter, and to athread with a dedicated SPM staging buffer. *)
  let sunway =
    Pipeline.make ~stencil:st
      ~schedule:(Schedule.sunway_canonical ~tile:[| 8; 16 |] kernel)
      ()
  in
  match Pipeline.compile ~target:Codegen.Athread sunway with
  | Ok files ->
      Codegen.write_files ~dir:"_msc_generated/varcoef" files;
      Printf.printf "\ngenerated Sunway code (aux grid staged in SPM): %d files, %d LoC\n"
        (List.length files) (Codegen.total_loc files)
  | Error msg -> print_endline msg
