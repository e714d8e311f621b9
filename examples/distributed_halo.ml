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
  let single = Runtime.create st in
  Runtime.run single 8;
  let depth1 = Distributed.gather dist in

  (* An uneven 3-D decomposition with a star stencil (faces only). *)
  let grid3 = Builder.def_tensor_3d ~time_window:2 ~halo:2 "B" Dtype.F64 23 17 29 in
  let k3 = Builder.star_kernel ~name:"S_3d13pt" ~radius:2 grid3 in
  let st3 = Builder.two_step ~name:"3d13pt_star" k3 in
  let single3 = Runtime.create st3 in
  Runtime.run single3 5;

  (* Each check runs twice. Without a network, delivery is instant: every
     rank's halo has arrived by the time its worker reaches it, so each
     rank is swept whole. A 20 ms flight outlasts a whole step's sweeps,
     so every rank's halo is still in flight: each rank sweeps its
     interior, waits, then sweeps its boundary shell. Both paths must give
     the single grid's bits. *)
  let in_flight = { Netmodel.shared_memory with Netmodel.alpha_s = 0.02 } in
  List.iter
    (fun (path, net) ->
      Printf.printf "\n%s:\n" path;
      let distributed ?(config = Exec.Config.default) ~ranks_shape ~steps st =
        let trace = Trace.create () in
        let d = Distributed.create ~config ?net ~trace ~ranks_shape st in
        let m0 = Mpi.messages_sent (Distributed.mpi d) in
        Distributed.run d steps;
        let split =
          List.fold_left
            (fun acc (c : Trace.total) ->
              if c.Trace.counter = "dist.overlapped_ranks" then acc +. c.Trace.sum else acc)
            0.0 (Trace.totals trace)
        in
        (Distributed.gather d, Mpi.messages_sent (Distributed.mpi d) - m0, split)
      in
      let against single (g, _, split) =
        Printf.sprintf "%s (%.0f rank-exchanges split)"
          (verdict (Grid.max_rel_error ~reference:(Runtime.current single) g = 0.0))
          split
      in
      let shallow = distributed ~ranks_shape:[| 2; 2 |] ~steps:8 st in
      Printf.printf "  2d9pt_box on 2x2, depth 1 vs single grid: %s\n" (against single shallow);
      let (g1, _, _) = shallow in
      Printf.printf "  depth 1 vs Pipeline.distribute: %s\n"
        (verdict (g1.Grid.data = depth1.Grid.data));
      (* The same protocol at temporal depth 2: one deep exchange feeds
         two steps, and every rank recomputes the halo ring the second
         step reads instead of exchanging it. Half the messages, the same
         bits as depth 1 and as the single grid. *)
      let ((g2, deep_messages, _) as deep) =
        distributed ~config:(Exec.Config.make ~depth:2 ()) ~ranks_shape:[| 2; 2 |] ~steps:8 st
      in
      Printf.printf "  depth 2: %d messages in 8 steps\n" deep_messages;
      Printf.printf "  depth 2 vs depth 1: %s\n" (verdict (g2.Grid.data = g1.Grid.data));
      Printf.printf "  depth 2 vs single grid: %s\n" (against single deep);
      Printf.printf "  3d13pt_star on a 3x2x2 grid (uneven blocks): %s\n"
        (against single3 (distributed ~ranks_shape:[| 3; 2; 2 |] ~steps:5 st3));
      (* The same two checks with the ranks stepped by a 3-worker pool:
         each worker owns a contiguous block of ranks, so 4 and 12 ranks
         split into uneven blocks (1+1+2 and 4+4+4). *)
      let pool = Domain_pool.create 3 in
      Fun.protect
        ~finally:(fun () -> Domain_pool.shutdown pool)
        (fun () ->
          let config = Exec.Config.make ~pool () in
          Printf.printf "  2d9pt_box on a 2x2 grid, 3-worker pool: %s\n"
            (against single (distributed ~config ~ranks_shape:[| 2; 2 |] ~steps:8 st));
          Printf.printf "  3d13pt_star on a 3x2x2 grid, 3-worker pool: %s\n"
            (against single3 (distributed ~config ~ranks_shape:[| 3; 2; 2 |] ~steps:5 st3))))
    [ ("instant delivery (ready ranks sweep whole)", None);
      ("20 ms in flight (every rank splits interior and shell)", Some in_flight) ];

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
