(* Large-scale execution in miniature: the communication library's domain
   decomposition and asynchronous halo exchange (§4.4, Figure 6), validated
   bit-for-bit against a single-grid run.

   Run with: dune exec examples/distributed_halo.exe *)

open Msc

(* Every bit-identity check prints its verdict; any MISMATCH fails the run. *)
let mismatches = ref 0

let verdict ok =
  if ok then "bit-identical"
  else begin
    incr mismatches;
    "MISMATCH"
  end

let () =
  (* The paper's Figure 6 setting, scaled up a little: a 2d9pt box stencil on
     a 2x2 MPI grid (box corners force diagonal exchanges). *)
  let grid = Builder.def_tensor_2d ~time_window:2 ~halo:1 "B" Dtype.F64 64 64 in
  let kernel = Builder.box_kernel ~name:"S_2d9pt" ~radius:1 grid in
  let st = Builder.two_step ~name:"2d9pt_box" kernel in

  let dist =
    Pipeline.distribute ~ranks_shape:[| 2; 2 |] (Pipeline.make ~stencil:st ())
  in
  Printf.printf "decomposed 64x64 over %d ranks:\n" (Distributed.nranks dist);
  let d = Distributed.decomp dist in
  for rank = 0 to Distributed.nranks dist - 1 do
    let offset, extent = Decomp.subdomain d ~rank in
    Printf.printf "  rank %d: offset (%d,%d) extent (%d,%d)\n" rank offset.(0)
      offset.(1) extent.(0) extent.(1)
  done;

  Distributed.run dist 8;
  let mpi = Distributed.mpi dist in
  Printf.printf "\nafter 8 steps: %d messages, %d bytes exchanged\n"
    (Mpi.messages_sent mpi) (Mpi.bytes_sent mpi);

  (* The gathered distributed state must equal the single-grid state
     exactly. *)
  let single = Runtime.create st in
  Runtime.run single 8;
  let err =
    Grid.max_rel_error ~reference:(Runtime.current single) (Distributed.gather dist)
  in
  Printf.printf "gathered vs single-grid max relative error: %g -> %s\n" err
    (verdict (err = 0.0));

  (* Both stepping protocols — the default Overlapped engine above hides
     the exchange behind each rank's interior sub-sweep; Bulk_synchronous
     is the lockstep parity reference. Their gathers agree bit-for-bit. *)
  let bulk =
    Distributed.create
      ~config:(Exec.Config.make ~engine:Exec.Bulk_synchronous ())
      ~ranks_shape:[| 2; 2 |] st
  in
  Distributed.run bulk 8;
  Printf.printf "overlapped vs bulk-synchronous engines: %s\n"
    (verdict
       ((Distributed.gather bulk).Grid.data = (Distributed.gather dist).Grid.data));

  (* An uneven 3-D decomposition with a star stencil (faces only). *)
  let grid3 = Builder.def_tensor_3d ~time_window:2 ~halo:2 "B" Dtype.F64 23 17 29 in
  let k3 = Builder.star_kernel ~name:"S_3d13pt" ~radius:2 grid3 in
  let st3 = Builder.two_step ~name:"3d13pt_star" k3 in
  let err3 = Distributed.validate ~steps:5 ~ranks_shape:[| 3; 2; 2 |] st3 in
  Printf.printf "3d13pt_star on a 3x2x2 grid (uneven blocks): err %g -> %s\n" err3
    (verdict (err3 = 0.0));

  (* The same two checks with the ranks stepped by a 3-worker pool: each
     worker owns a contiguous block of ranks, so 4 and 12 ranks split into
     uneven blocks (1+1+2 and 4+4+4). *)
  let pool = Domain_pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let config = Exec.Config.make ~pool () in
      let err = Distributed.validate ~config ~steps:8 ~ranks_shape:[| 2; 2 |] st in
      Printf.printf "2d9pt_box on a 2x2 grid, 3-worker pool: err %g -> %s\n" err
        (verdict (err = 0.0));
      let err3 = Distributed.validate ~config ~steps:5 ~ranks_shape:[| 3; 2; 2 |] st3 in
      Printf.printf "3d13pt_star on a 3x2x2 grid, 3-worker pool: err %g -> %s\n" err3
        (verdict (err3 = 0.0)));

  (* Predicted scalability of this stencil at paper scale (Figure 10). *)
  print_newline ();
  let make_stencil dims =
    let g = Builder.def_tensor_2d ~time_window:2 ~halo:1 "B" Dtype.F64 dims.(0) dims.(1) in
    Builder.two_step ~name:"2d9pt_box" (Builder.box_kernel ~name:"S" ~radius:1 g)
  in
  let points =
    Scaling.run ~platform:Scaling.Sunway ~make_stencil
      ~configs:
        [
          ([| 16; 8 |], [| 4096; 4096 |]);
          ([| 16; 16 |], [| 4096; 4096 |]);
          ([| 32; 16 |], [| 4096; 4096 |]);
          ([| 32; 32 |], [| 4096; 4096 |]);
        ]
  in
  print_endline "weak scaling on Sunway (simulated):";
  List.iter
    (fun (p : Scaling.point) ->
      Printf.printf "  %6d cores: %10.1f GFlop/s (ideal %10.1f)\n"
        p.Scaling.cores p.Scaling.gflops p.Scaling.ideal_gflops)
    points;
  if !mismatches > 0 then begin
    Printf.eprintf "%d bit-identity check(s) failed\n" !mismatches;
    exit 1
  end
