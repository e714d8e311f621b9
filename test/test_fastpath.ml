(* Parity and stress tests for the execution engine: schedule-independence
   across the whole benchmark suite, chain-lowered compiled sweeps vs the
   tree interpreter, the identity-term sweeps, and the persistent domain
   pool. *)

open Helpers
module Grid = Msc_exec.Grid
module Interp = Msc_exec.Interp
module Backend = Msc_exec.Backend
module Jit = Msc_exec.Jit
module Runtime = Msc_exec.Runtime
module Schedule = Msc_schedule.Schedule
module Suite = Msc_benchsuite.Suite
module Domain_pool = Msc_util.Domain_pool
open Msc_ir
open Msc_frontend

let small_dims (b : Suite.bench) =
  match b.Suite.ndim with 2 -> [| 18; 18 |] | _ -> [| 12; 12; 12 |]

let final_state ?schedule ?pool ~steps st =
  let config = Msc_exec.Exec.Config.make ?pool () in
  let rt = Runtime.create ?schedule ~config st in
  Runtime.run rt steps;
  Runtime.current rt

(* --- Seq / Block / Round_robin schedules agree on every suite kernel --- *)

let schedule_parity_suite () =
  let pool = Domain_pool.create 4 in
  List.iter
    (fun (b : Suite.bench) ->
      let st = Suite.stencil ~dims:(small_dims b) b in
      let kernel = Suite.kernel_of st in
      let tile =
        Array.map (fun n -> max 1 (n / 3)) st.Stencil.grid.Tensor.shape
      in
      let seq = Grid.checksum (final_state ~steps:3 st) in
      let block =
        Grid.checksum
          (final_state
             ~schedule:(Schedule.matrix_canonical ~tile ~threads:4 kernel)
             ~pool ~steps:3 st)
      in
      let rr =
        Grid.checksum
          (final_state
             ~schedule:(Schedule.sunway_canonical ~tile ~cpes:8 kernel)
             ~pool ~steps:3 st)
      in
      check_float (b.Suite.name ^ " block == seq") seq block;
      check_float (b.Suite.name ^ " round_robin == seq") seq rr)
    Suite.all;
  (* Every suite sweep at these dims is far below the pool inline cutoff
     (Runtime.backend_report.pool_inline_cutoff): the parallel schedules run
     inline on the calling domain and the pool never spawns a helper.
     Dispatch above the cutoff is covered in test_backend. *)
  check_int "no helper spawned under the cutoff" 0 (Domain_pool.spawn_total pool);
  Domain_pool.shutdown pool

(* --- Chain-lowered compiled sweeps vs the tree interpreter ---

   The interpreter evaluates every kernel as its expression tree; the
   compiled backend lowers tap and bilinear kernels to product chains.
   Both must agree bit for bit, and the interpreter's per-point fold must
   seed with the first term and add every later one. *)

let have_cc () =
  Sys.command "command -v cc > /dev/null 2>&1 || command -v gcc > /dev/null 2>&1" = 0

let check_same_bits name ~expected got =
  check_bool name true
    (Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       expected.Grid.data got.Grid.data)

let sweep_vs_tree ~name k ~aux ~src shape =
  let halo = src.Grid.halo in
  let kernel scale = Backend.Sweep_kernel { scale; kernel = k; halo } in
  let sweep terms =
    let dst = Grid.like src in
    interp_sweep ~aux terms ~dst;
    dst
  in
  let applied = sweep [ (kernel 1.0, src) ] in
  (* A later term: dst + scale * K, from an arbitrary earlier State. *)
  let prev = Grid.like src and by_hand = Grid.like src in
  Grid.fill prev (fun coord -> 0.3 -. (0.05 *. float_of_int coord.(0)));
  Grid.fill by_hand (fun coord ->
      Grid.get prev coord +. (0.7 *. Grid.get applied coord));
  check_same_bits (name ^ " later term == acc + scale*K") ~expected:by_hand
    (sweep [ (Backend.Sweep_state { scale = 1.0 }, prev); (kernel 0.7, src) ]);
  (* A scaled seed == a scaled later term after a zero State. *)
  let scaled = sweep [ (kernel (-1.3), src) ] in
  check_same_bits (name ^ " scaled seed == zero+scaled term")
    ~expected:(sweep [ (Backend.Sweep_state { scale = 1.0 }, Grid.like src); (kernel (-1.3), src) ])
    scaled;
  (* The compiled chain sweep, unscaled and scaled. *)
  if have_cc () then
    List.iter
      (fun (scale, expected) ->
        let terms = [ kernel scale ] in
        match Jit.compile_sweep ~plan_digest:"test-fastpath-parity" terms with
        | Error msg -> Alcotest.failf "%s: compile_sweep: %s" name msg
        | Ok fn ->
            let got = Grid.like src in
            let slots =
              Array.of_list
                (List.map (fun a -> (List.assoc a aux).Grid.data) (Backend.sweep_aux_slots terms))
            in
            fn [| src.Grid.data |] got.Grid.data slots (Array.make (Array.length shape) 0) shape;
            check_same_bits
              (Printf.sprintf "%s compiled (scale %g) == interp" name scale)
              ~expected got)
      [ (1.0, applied); (-1.3, scaled) ]

(* Tap kernels: the 3/5/7-point stars, a 9-point 2-D box and a 13-point
   radius-2 star, each one product per tap. *)
let interp_taps_parity () =
  let cases =
    [
      ("3pt", Builder.def_tensor_1d ~halo:1 "B" Dtype.F64 17, Shapes.Star, 1, 3);
      ("5pt", Builder.def_tensor_2d ~halo:1 "B" Dtype.F64 11 13, Shapes.Star, 1, 5);
      ("7pt", Builder.def_tensor_3d ~halo:1 "B" Dtype.F64 7 8 9, Shapes.Star, 1, 7);
      ("9pt_box", Builder.def_tensor_2d ~halo:1 "B" Dtype.F64 11 13, Shapes.Box, 1, 9);
      ("13pt", Builder.def_tensor_3d ~halo:2 "B" Dtype.F64 7 8 9, Shapes.Star, 2, 13);
    ]
  in
  List.iter
    (fun (name, grid, shape, radius, taps) ->
      let k = Builder.shaped_kernel ~name:("K" ^ name) ~shape ~radius grid in
      check_bool (name ^ " lowers to a chain of its taps") true
        (Jit.chain_length k = Some taps);
      let src = Grid.of_tensor grid in
      Grid.fill_extended src (fun coord ->
          let acc = ref 0.9 in
          Array.iteri
            (fun d x -> acc := !acc +. (0.11 *. float_of_int ((d + 1) * x)))
            coord;
          !acc);
      sweep_vs_tree ~name k ~aux:[] ~src grid.Tensor.shape)
    cases

let interp_bilinear_parity () =
  let grid = Builder.def_tensor_2d ~halo:1 "B" Dtype.F64 12 14 in
  let coeff = Builder.coefficient_grid ~grid "C" in
  let k =
    Builder.var_coeff_kernel ~name:"VC" ~coeff ~shape:Shapes.Star ~radius:1 grid
  in
  check_bool "bilinear lowers to a chain" true (Jit.chain_length k = Some 5);
  let src = Grid.of_tensor grid in
  Grid.fill_extended src (fun coord ->
      1.0 +. (0.07 *. float_of_int (coord.(0) + (3 * coord.(1)))));
  let aux_grid = Grid.of_tensor grid in
  Grid.fill_extended aux_grid (Runtime.default_aux_init "C");
  sweep_vs_tree ~name:"bilinear" k ~aux:[ ("C", aux_grid) ] ~src grid.Tensor.shape

(* --- Identity (State) terms --- *)

let interp_identity_apply () =
  let g = Grid.create ~shape:[| 6; 7 |] ~halo:[| 1; 1 |] in
  Grid.fill g (fun c -> float_of_int ((c.(0) * 7) + c.(1)) +. 0.5);
  let lo = [| 1; 2 |] and hi = [| 5; 6 |] in
  let state scale = Backend.Sweep_state { scale } in
  (* scale = 1: a copy of the range. *)
  let dst = Grid.like g in
  interp_sweep ~lo ~hi [ (state 1.0, g) ] ~dst;
  check_float "copied subbox" (Grid.get g [| 2; 3 |]) (Grid.get dst [| 2; 3 |]);
  check_float "outside untouched" 0.0 (Grid.get dst [| 0; 0 |]);
  (* scaled seed == scaled later term after a zero State. *)
  let dst_s = Grid.like g and dst_a = Grid.like g in
  interp_sweep ~lo ~hi [ (state 0.25, g) ] ~dst:dst_s;
  interp_sweep ~lo ~hi [ (state 1.0, Grid.like g); (state 0.25, g) ] ~dst:dst_a;
  check_float "scaled identity parity" 0.0
    (Grid.max_rel_error ~reference:dst_a dst_s)

(* --- Persistent pool: reuse, stress, exceptions --- *)

let pool_spawns_once_across_steps () =
  (* 36^3 = 46656 interior points per sweep keeps this above the pool
     inline cutoff so the pool genuinely dispatches every step. *)
  let k, st = stencil_3d7pt ~n:36 () in
  let sched = Schedule.matrix_canonical ~tile:[| 9; 12; 18 |] ~threads:4 k in
  let pool = Domain_pool.create 4 in
  let rt =
    Runtime.create ~schedule:sched
      ~config:(Msc_exec.Exec.Config.make ~pool ())
      st
  in
  Runtime.run rt 12;
  (* 12 steps x many tiles: still exactly one spawn per helper domain. *)
  check_int "helpers spawned once" 3 (Domain_pool.spawn_total pool);
  let seq = final_state ~steps:12 st in
  check_float "parallel result identical" 0.0
    (Grid.max_rel_error ~reference:seq (Runtime.current rt));
  Domain_pool.shutdown pool

let pool_exception_then_reuse () =
  let pool = Domain_pool.create 3 in
  for round = 1 to 4 do
    check_bool
      (Printf.sprintf "round %d raises" round)
      true
      (try
         Domain_pool.parallel_for pool ~lo:0 ~hi:60 (fun i ->
             if i mod 17 = 5 then failwith "boom");
         false
       with Failure _ -> true);
    (* The pool must stay fully functional after a failed region. *)
    let acc = Atomic.make 0 in
    Domain_pool.parallel_for pool ~lo:0 ~hi:100 (fun i ->
        ignore (Atomic.fetch_and_add acc i));
    check_int (Printf.sprintf "round %d sum" round) 4950 (Atomic.get acc)
  done;
  check_int "no respawn across failures" 2 (Domain_pool.spawn_total pool);
  Domain_pool.shutdown pool

let pool_shutdown_respawn () =
  let pool = Domain_pool.create 3 in
  Domain_pool.parallel_for pool ~lo:0 ~hi:10 (fun _ -> ());
  check_int "first spawn" 2 (Domain_pool.spawn_total pool);
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool (* idempotent *);
  let hits = Array.make 10 0 in
  Domain_pool.parallel_for pool ~lo:0 ~hi:10 (fun i -> hits.(i) <- hits.(i) + 1);
  Array.iter (fun h -> check_int "post-shutdown dispatch" 1 h) hits;
  check_int "respawned" 4 (Domain_pool.spawn_total pool);
  Domain_pool.shutdown pool

let pool_dispatch_stress () =
  let pool = Domain_pool.create 4 in
  let total = ref 0 in
  for _ = 1 to 500 do
    let acc = Atomic.make 0 in
    Domain_pool.parallel_chunks pool ~lo:0 ~hi:32 (fun ~worker:_ i ->
        ignore (Atomic.fetch_and_add acc i));
    total := !total + Atomic.get acc
  done;
  check_int "500 dispatches" (500 * 496) !total;
  check_int "still one spawn" 3 (Domain_pool.spawn_total pool);
  Domain_pool.shutdown pool

let suites =
  [
    ( "fastpath.parity",
      [
        slow "schedule parity over Suite.all" schedule_parity_suite;
        tc "taps unrolls == generic" interp_taps_parity;
        tc "bilinear == generic" interp_bilinear_parity;
        tc "identity apply" interp_identity_apply;
      ] );
    ( "fastpath.pool",
      [
        tc "spawns once across steps" pool_spawns_once_across_steps;
        tc "exception then reuse" pool_exception_then_reuse;
        tc "shutdown respawn" pool_shutdown_respawn;
        tc "dispatch stress" pool_dispatch_stress;
      ] );
  ]
