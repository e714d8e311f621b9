(* A second-order wave equation — the motivating case for multiple time
   dependencies (§1: "second-order wave functions such as mechanical waves").

     u[t] = 2 u[t-1] - u[t-2] + c^2 dt^2 lap(u[t-1])

   The [State] form gives the identity access to past states; the Laplacian
   is an ordinary spatial kernel. A Gaussian pulse in the centre propagates
   outward as a ring; we print coarse snapshots of the wavefield.

   Run with: dune exec examples/wave2d.exe (exits 1 if a verification
   fails) *)

open Msc

let n = 96
let courant2 = 0.2 (* (c dt / dx)^2, inside the CFL limit *)

let () =
  let grid = Builder.def_tensor_2d ~time_window:2 ~halo:1 "U" Dtype.F64 n n in
  let laplacian =
    Builder.kernel ~name:"Lap"
      ~grid
      ~bindings:[ ("c", courant2) ]
      Expr.(
        p "c"
        * (read "U" [| -1; 0 |] + read "U" [| 1; 0 |] + read "U" [| 0; -1 |]
          + read "U" [| 0; 1 |]
          - (f 4.0 * read "U" [| 0; 0 |])))
  in
  let wave =
    Builder.(
      stencil ~name:"wave2d" ~grid
        ((2.0 *: state 1) -: state 2 +: (laplacian @> 1)))
  in
  Format.printf "%a@.@." Stencil.pp wave;

  (* Initial condition: a Gaussian pulse, identical at t-1 and t-2 (zero
     initial velocity). *)
  let init _dt coord =
    let x = float_of_int coord.(0) -. (float_of_int n /. 2.0) in
    let y = float_of_int coord.(1) -. (float_of_int n /. 2.0) in
    exp (-.((x *. x) +. (y *. y)) /. 30.0)
  in
  let schedule = Schedule.matrix_canonical ~tile:[| 16; 32 |] ~threads:4 laplacian in
  let rt = Runtime.create ~schedule ~init wave in

  (* Verify the tiled runtime, on the interpreter and on compiled C,
     against the untiled, sequential interpreter first; exit 1 on a FAIL. *)
  List.iter
    (fun backend ->
      let config = Exec.Config.make ~backend () in
      let report = Verify.check ~schedule ~config ~init ~steps:10 wave in
      Format.printf "%a@." Verify.pp_report report;
      if not report.Verify.ok then exit 1)
    Backend.all;
  print_newline ();

  let snapshot () =
    let g = Runtime.current rt in
    (* A coarse 24x48 ASCII rendering of the wavefield. *)
    for row = 0 to 23 do
      for col = 0 to 47 do
        let i = row * n / 24 and j = col * n / 48 in
        let v = Grid.get g [| i; j |] in
        let c =
          if v > 0.25 then '#'
          else if v > 0.05 then '+'
          else if v < -0.25 then '='
          else if v < -0.05 then '-'
          else ' '
        in
        print_char c
      done;
      print_newline ()
    done;
    Printf.printf "(step %d, max |u| = %.3f)\n\n" (Runtime.steps_done rt)
      (Grid.max_abs g)
  in
  snapshot ();
  List.iter
    (fun steps ->
      Runtime.run rt steps;
      snapshot ())
    [ 20; 20; 20 ]
