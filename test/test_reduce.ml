(* Tests for grid reductions end-to-end: the Reduce op algebra and its
   deterministic tree combine, Plan's reduce lowering, the Reduction
   executor (interpreter reference, compiled fast path, pool/backend
   bit-identity), Mpi_sim's allreduce collective, the allreduce cost
   model, and Distributed.reduce across temporal depths. *)

open Helpers
module Reduce = Msc_ir.Reduce
module Reduction = Msc_exec.Reduction
module Plan = Msc_schedule.Plan
module Schedule = Msc_schedule.Schedule
module Grid = Msc_exec.Grid
module Exec = Msc_exec.Exec
module Backend = Msc_exec.Backend
module Runtime = Msc_exec.Runtime
module Mpi = Msc_comm.Mpi_sim
module Netmodel = Msc_comm.Netmodel
module Scaling = Msc_comm.Scaling
module Distributed = Msc_comm.Distributed
module Graph = Msc_graph.Graph
module Pool = Msc_util.Domain_pool
module Prng = Msc_util.Prng

let have_tool t =
  Sys.command (Printf.sprintf "command -v %s > /dev/null 2>&1" t) = 0

let toolchain_for = function
  | Backend.Interp -> true
  | Backend.Compiled_c -> have_tool "cc" || have_tool "gcc"

let backends = Backend.all
let all_ops = Reduce.all

(* --- Reduce algebra --- *)

let op_round_trip () =
  List.iter
    (fun op ->
      match Reduce.of_string (Reduce.to_string op) with
      | Some op' ->
          check_string "round trip" (Reduce.to_string op) (Reduce.to_string op')
      | None -> Alcotest.fail "of_string (to_string op) = None")
    all_ops;
  check_bool "unknown rejected" true (Reduce.of_string "median" = None)

let tree_combine_order () =
  (* Stride-doubling over the index: ((a0+a1)+(a2+a3))+a4, exactly. *)
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let expected = (1.0 +. 2.0) +. (3.0 +. 4.0) +. 5.0 in
  check_bool "pairwise tree" true
    (Reduce.tree_combine Reduce.Sum a = expected);
  (* The fold runs in place on the caller's array: every level writes its
     left operand's slot, and slot 0 ends holding the result. *)
  check_bool "folded in place" true (a = [| expected; 2.0; 3.0 +. 4.0; 4.0; 5.0 |]);
  (* Max_abs keeps the larger partial, [if b > a then b else a]: a NaN on
     the left of a combine survives it, one on the right is dropped. *)
  let m = [| 2.0; 7.0; Float.nan; 3.0; 5.0 |] in
  check_float "max fold" 7.0 (Reduce.tree_combine Reduce.Max_abs m);
  check_bool "left NaN kept" true (Float.is_nan m.(2));
  check_float "singleton" 7.5 (Reduce.tree_combine Reduce.Sum [| 7.5 |]);
  (match Reduce.tree_combine Reduce.Sum [||] with
  | _ -> Alcotest.fail "empty must raise"
  | exception Invalid_argument _ -> ())

let op_semantics () =
  check_float "sum point" 5.0 (Reduce.point Reduce.Sum 2.0 3.0);
  check_float "norm2 point" 11.0 (Reduce.point Reduce.Norm2 2.0 3.0);
  check_float "max_abs point" 3.0 (Reduce.point Reduce.Max_abs 2.0 (-3.0));
  check_float "dot point2" 8.0 (Reduce.point2 Reduce.Dot 2.0 2.0 3.0);
  (match Reduce.point Reduce.Dot 0.0 1.0 with
  | _ -> Alcotest.fail "unary point on Dot must raise"
  | exception Invalid_argument _ -> ());
  check_float "norm2 finalize" 3.0 (Reduce.finalize Reduce.Norm2 9.0);
  check_float "sum finalize id" 9.0 (Reduce.finalize Reduce.Sum 9.0);
  check_int "dot arity" 2 (Reduce.arity Reduce.Dot);
  check_int "sum arity" 1 (Reduce.arity Reduce.Sum);
  List.iteri
    (fun i op -> check_int "codes are stable" i (Reduce.code op))
    [ Reduce.Sum; Reduce.Dot; Reduce.Norm2; Reduce.Max_abs ]

(* --- Plan lowering --- *)

let plan_reduce_matches_tree () =
  (* Folding a plan's rp_combine levels in place must agree with
     Reduce.tree_combine over the same task partials. *)
  let _, st = stencil_2d9pt_box ~m:14 ~n:18 () in
  let plan =
    match Plan.compile st Schedule.empty with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let rp = Plan.reduce_plan plan in
  let n = Array.length rp.Plan.rp_tasks in
  check_bool "plan has tasks" true (n >= 1);
  let partials = Array.init n (fun i -> Float.of_int ((i * 7) + 1) /. 3.0) in
  let folded = Array.copy partials in
  Array.iter
    (Array.iter (fun (dst, src) -> folded.(dst) <- folded.(dst) +. folded.(src)))
    rp.Plan.rp_combine;
  check_bool "levels reproduce tree_combine" true
    (folded.(0) = Reduce.tree_combine Reduce.Sum partials)

(* --- Reduction executor --- *)

let fill_grid seed (g : Grid.t) =
  let rng = Prng.create seed in
  Grid.fill_random g rng;
  (* Mix in negatives so Max_abs is non-trivial. *)
  Grid.fill g (fun c -> Grid.get g c -. 0.5)

let whole_interior_partial ~op ?with_ g =
  let nd = Array.length g.Grid.shape in
  Reduction.partial ~op ?with_ g ~lo:(Array.make nd 0)
    ~hi:(Array.copy g.Grid.shape)

let reduction_matches_reference () =
  let g = Grid.create ~shape:[| 9; 13 |] ~halo:[| 1; 1 |] in
  let h = Grid.like g in
  fill_grid 11 g;
  fill_grid 23 h;
  let t = Reduction.create g in
  List.iter
    (fun op ->
      let with_ = if Reduce.arity op = 2 then Some h else None in
      let expect =
        Reduce.finalize op (whole_interior_partial ~op ?with_ g)
      in
      check_bool (Reduce.to_string op) true
        (Reduction.run t ~op ?with_ g = expect))
    all_ops;
  check_bool "interp never compiles" false (Reduction.compiled t)

let split_tasks ~parts (shape : int array) =
  (* Disjoint boxes cut along dimension 0. *)
  let n0 = shape.(0) in
  let parts = min parts n0 in
  Array.init parts (fun i ->
      let lo = Array.make (Array.length shape) 0 in
      let hi = Array.copy shape in
      lo.(0) <- i * n0 / parts;
      hi.(0) <- (i + 1) * n0 / parts;
      (lo, hi))

let reduction_bit_identical_backends_pools () =
  (* The tentpole contract: same tasks => same bits, whatever fills the
     partials (interpreter or compiled kernels, any pool size). *)
  let g = Grid.create ~shape:[| 12; 10 |] ~halo:[| 1; 1 |] in
  let h = Grid.like g in
  fill_grid 5 g;
  fill_grid 6 h;
  let tasks = split_tasks ~parts:5 g.Grid.shape in
  let reference =
    let t = Reduction.create ~tasks g in
    List.map (fun op ->
        let with_ = if Reduce.arity op = 2 then Some h else None in
        Reduction.run t ~op ?with_ g)
      all_ops
  in
  List.iter
    (fun backend ->
      if toolchain_for backend then
        List.iter
          (fun workers ->
            let pool = if workers = 1 then Pool.sequential else Pool.create workers in
            Fun.protect
              ~finally:(fun () -> if workers > 1 then Pool.shutdown pool)
              (fun () ->
                let config = Exec.Config.make ~backend ~pool () in
                let t = Reduction.create ~config ~tasks g in
                (match Reduction.fallback t with
                | Some msg ->
                    if backend <> Backend.Interp then
                      Alcotest.failf "%s fell back: %s"
                        (Backend.to_string backend) msg
                | None -> ());
                List.iteri
                  (fun i op ->
                    let with_ =
                      if Reduce.arity op = 2 then Some h else None
                    in
                    check_bool
                      (Printf.sprintf "%s/%s/pool%d" (Backend.to_string backend)
                         (Reduce.to_string op) workers)
                      true
                      (Reduction.run t ~op ?with_ g = List.nth reference i))
                  all_ops))
          [ 1; 2; 4 ])
    backends

let reduction_qcheck_partial_vs_executor =
  qc ~count:60 "reduction: tiled executor = whole-interior fold"
    QCheck.(triple (int_range 2 11) (int_range 2 13) (int_range 1 6))
    (fun (m, n, parts) ->
      let g = Grid.create ~shape:[| m; n |] ~halo:[| 1; 1 |] in
      fill_grid ((m * 31) + n) g;
      let tasks = split_tasks ~parts g.Grid.shape in
      let t = Reduction.create ~tasks g in
      List.for_all
        (fun op ->
          if Reduce.arity op = 2 then true
          else begin
            (* Tiled tree fold vs the flat fold: identical for Max_abs
               (order-free) and within roundoff for the additive ops; the
               executor's own determinism is checked by re-running. *)
            let v1 = Reduction.run t ~op g in
            let v2 = Reduction.run t ~op g in
            let flat = Reduce.finalize op (whole_interior_partial ~op g) in
            v1 = v2 && Float.abs (v1 -. flat) <= 1e-12 *. (1.0 +. Float.abs flat)
          end)
        all_ops)

let reduction_geometry_checks () =
  let g = Grid.create ~shape:[| 6; 6 |] ~halo:[| 1; 1 |] in
  let t = Reduction.create g in
  (match Reduction.run t ~op:Reduce.Dot g with
  | _ -> Alcotest.fail "Dot without with_ must raise"
  | exception Invalid_argument _ -> ());
  let wrong = Grid.create ~shape:[| 6; 7 |] ~halo:[| 1; 1 |] in
  (match Reduction.run t ~op:Reduce.Sum wrong with
  | _ -> Alcotest.fail "geometry mismatch must raise"
  | exception Invalid_argument _ -> ());
  (match Reduction.create ~tasks:[| ([| 0; 0 |], [| 7; 6 |]) |] g with
  | _ -> Alcotest.fail "task outside interior must raise"
  | exception Invalid_argument _ -> ())

(* --- Mpi_sim.allreduce --- *)

let allreduce_exact () =
  let mpi = Mpi.create ~nranks:4 () in
  let partials = [| 0.1; 0.2; 0.3; 0.4 |] in
  let v = Mpi.allreduce mpi ~tag:9 ~op:Reduce.Sum partials in
  (* The collective folds the gathered array in tree order — exactly
     tree_combine, bits included (payloads round-trip float bits). *)
  check_bool "tree order result" true (v = Reduce.tree_combine Reduce.Sum partials);
  check_int "2(n-1) hops" 6 (Mpi.messages_sent mpi);
  check_int "8-byte payloads" 48 (Mpi.bytes_sent mpi);
  check_int "drained" 0 (Mpi.pending_messages mpi)

let allreduce_single_rank () =
  let mpi = Mpi.create ~nranks:1 () in
  check_float "identity" 42.0 (Mpi.allreduce mpi ~tag:0 ~op:Reduce.Sum [| 42.0 |]);
  check_int "no traffic" 0 (Mpi.messages_sent mpi)

let allreduce_validates () =
  let mpi = Mpi.create ~nranks:3 () in
  match Mpi.allreduce mpi ~tag:0 ~op:Reduce.Sum [| 1.0; 2.0 |] with
  | _ -> Alcotest.fail "partial count mismatch must raise"
  | exception Invalid_argument _ -> ()

(* A collective reuses one payload per rank across calls; a message of
   another size on its channel is rejected, not read past its end. *)
let allreduce_rejects_stray_message () =
  let mpi = Mpi.create ~nranks:3 () in
  let partials = [| 0.5; 1.5; 2.5 |] in
  let first = Mpi.allreduce mpi ~tag:5 ~op:Reduce.Sum partials in
  check_bool "same bits on reuse" true
    (Int64.equal (Int64.bits_of_float first)
       (Int64.bits_of_float (Mpi.allreduce mpi ~tag:5 ~op:Reduce.Sum partials)));
  Mpi.port_send (Mpi.send_port mpi ~src:1 ~dst:0 ~tag:5) (Bytes.create 3);
  match Mpi.allreduce mpi ~tag:5 ~op:Reduce.Sum partials with
  | _ -> Alcotest.fail "a 3-byte message on the collective channel must raise"
  | exception Invalid_argument _ -> ()

(* --- Cost model --- *)

let allreduce_time_model () =
  let net = Netmodel.tianhe3_prototype in
  check_float "one rank free" 0.0 (Netmodel.allreduce_time net ~nranks:1 ~bytes:8);
  (* Recursive doubling: ceil(log2 8) = 3 rounds of one message each. *)
  check_bool "8 ranks = 3 rounds" true
    (Netmodel.allreduce_time net ~nranks:8 ~bytes:8
    = 3.0 *. Netmodel.message_time net ~nranks:8 ~bytes:8);
  check_bool "5 ranks also 3 rounds" true
    (Netmodel.allreduce_time net ~nranks:5 ~bytes:8
    = 3.0 *. Netmodel.message_time net ~nranks:5 ~bytes:8);
  (match Netmodel.allreduce_time net ~nranks:0 ~bytes:8 with
  | _ -> Alcotest.fail "nranks 0 must raise"
  | exception Invalid_argument _ -> ())

let scaling_counts_allreduces () =
  let args ~depth ~allreduces_per_step =
    Scaling.comm_time ~depth ~allreduces_per_step Scaling.Tianhe3 ~ranks:16
      ~sub_grid:[| 64; 64 |] ~radius:[| 1; 1 |] ~elem:8 ~faces_only:true
  in
  let base = args ~depth:1 ~allreduces_per_step:0 in
  let ar = Scaling.allreduce_time Scaling.Tianhe3 ~ranks:16 in
  check_bool "allreduces add on top" true
    (args ~depth:1 ~allreduces_per_step:2 = base +. (2.0 *. ar));
  (* Temporal blocking amortises the halo alpha but never the solver
     collectives: the allreduce term sits outside the depth divide. *)
  let deep0 = args ~depth:4 ~allreduces_per_step:0 in
  check_bool "not amortised by depth" true
    (args ~depth:4 ~allreduces_per_step:1 = deep0 +. ar);
  (match args ~depth:1 ~allreduces_per_step:(-1) with
  | _ -> Alcotest.fail "negative allreduces must raise"
  | exception Invalid_argument _ -> ())

(* --- Distributed.reduce --- *)

let distributed_reduce_bit_identical () =
  (* One reference value per op (interp, sequential, depth 1), then every
     backend x temporal depth x rank-pool size must reproduce it
     bit-for-bit. *)
  let _, st = stencil_2d9pt_box ~m:14 ~n:18 () in
  let unary_ops = List.filter (fun op -> Reduce.arity op = 1) all_ops in
  let value backend depth workers op =
    let pool = if workers = 1 then Pool.sequential else Pool.create workers in
    Fun.protect
      ~finally:(fun () -> if workers > 1 then Pool.shutdown pool)
      (fun () ->
        let config = Exec.Config.make ~backend ~depth ~pool () in
        let d = Distributed.create ~config ~ranks_shape:[| 2; 2 |] st in
        Distributed.run d 3;
        Distributed.reduce d ~op)
  in
  List.iter
    (fun op ->
      let reference = value Backend.Interp 1 1 op in
      check_bool "reference is finite" true (Float.is_finite reference);
      List.iter
        (fun backend ->
          if toolchain_for backend then
            List.iter
              (fun depth ->
                List.iter
                  (fun workers ->
                    check_bool
                      (Printf.sprintf "%s/%s/depth%d/pool%d" (Reduce.to_string op)
                         (Backend.to_string backend) depth workers)
                      true
                      (value backend depth workers op = reference))
                  [ 1; 2; 4 ])
              [ 1; 2 ])
        backends)
    unary_ops

let distributed_reduce_rejects_dot () =
  let _, st = stencil_2d9pt_box () in
  let d = Distributed.create ~ranks_shape:[| 2; 1 |] st in
  match Distributed.reduce d ~op:Reduce.Dot with
  | _ -> Alcotest.fail "Dot over the state must raise"
  | exception Invalid_argument _ -> ()

let distributed_reduce_counts_traffic () =
  let _, st = stencil_2d9pt_box () in
  let d = Distributed.create ~ranks_shape:[| 2; 2 |] st in
  Distributed.step d;
  let mpi = Distributed.mpi d in
  Mpi.reset_counters mpi;
  ignore (Distributed.reduce d ~op:Reduce.Sum);
  (* gather + broadcast across 4 ranks = 6 eight-byte hops. *)
  check_int "allreduce hops" 6 (Mpi.messages_sent mpi);
  check_int "allreduce bytes" 48 (Mpi.bytes_sent mpi)

(* A steady-state collective allocates (almost) nothing: each rank's
   compiled partial is stored straight into the executor's array, the
   tree folds that array in place with a monomorphic loop per operator,
   and the allreduce ping-pongs preallocated payloads. Pinned at 6 words
   per rank on 8x8 ranks with
   one task per rank (the default schedule). The interpreter's reference
   fold allocates per row, so there is nothing to pin without a C
   toolchain. The sequential pool runs every rank on this domain, whose
   minor-heap counter is exact. *)
let distributed_reduce_allocation_pinned () =
  let _, st = stencil_2d9pt_box ~m:64 ~n:64 () in
  let config = Exec.Config.make ~backend:Backend.Compiled_c () in
  let d = Distributed.create ~config ~ranks_shape:[| 8; 8 |] st in
  Distributed.step d;
  let first = Distributed.reduce d ~op:Reduce.Norm2 in
  if Msc_exec.Reduction.compiled
       (Msc_exec.Reduction.create ~config (Distributed.rank_state d ~rank:0))
  then begin
    let same = ref true in
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    for _ = 1 to 10 do
      if Distributed.reduce d ~op:Reduce.Norm2 <> first then same := false
    done;
    let words = (Gc.minor_words () -. w0) /. 10.0 in
    check_bool "same bits every call" true !same;
    check_bool
      (Printf.sprintf "%.0f words per reduce (%.2f per rank) <= 6 per rank" words
         (words /. 64.0))
      true
      (words <= 6.0 *. 64.0)
  end

(* --- depth accounting --- *)

let graph_temporal_depth_rejected () =
  let _, st = stencil_2d9pt_box () in
  let single = Graph.single st in
  (match
     Distributed.create_graph
       ~config:(Exec.Config.make ~depth:3 ())
       ~ranks_shape:[| 2; 1 |] single
   with
  | _ -> Alcotest.fail "graph + temporal depth > 1 must raise"
  | exception Invalid_argument msg ->
      check_bool "message names the depth" true
        (let has sub =
           let n = String.length msg and m = String.length sub in
           let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
           go 0
         in
         has "depth 3"));
  (* Depth 1 is accepted and steps exactly. *)
  let d =
    Distributed.create_graph ~config:(Exec.Config.make ~depth:1 ())
      ~ranks_shape:[| 2; 1 |] single
  in
  check_int "effective depth 1" 1 (Distributed.effective_depth d);
  check_float "depth-1 graph == single grid" 0.0
    (Distributed.validate_graph ~config:(Exec.Config.make ~depth:1 ()) ~steps:3
       ~ranks_shape:[| 2; 1 |] single)

let effective_depth_reports_clamp () =
  (* A 6-wide decomposition over a 14-row grid (2-row ranks, radius 1)
     cannot host depth 5: the effective depth reports the clamp, and the
     clamped run stays exact. *)
  let _, st = stencil_2d9pt_box ~m:14 ~n:18 () in
  let config = Exec.Config.make ~depth:5 () in
  let d = Distributed.create ~config ~ranks_shape:[| 6; 1 |] st in
  check_int "clamped to the thinnest rank" 2 (Distributed.effective_depth d);
  check_float "clamped depth stays exact" 0.0
    (Distributed.validate ~config ~steps:5 ~ranks_shape:[| 6; 1 |] st);
  (* The default depth 1 needs no clamp. *)
  let d2 = Distributed.create ~ranks_shape:[| 2; 2 |] st in
  check_int "default depth 1" 1 (Distributed.effective_depth d2)

let suites =
  [
    ( "reduce.ops",
      [
        tc "op round trip" op_round_trip;
        tc "tree combine order" tree_combine_order;
        tc "op semantics" op_semantics;
        tc "plan reduce matches tree" plan_reduce_matches_tree;
      ] );
    ( "reduce.executor",
      [
        tc "matches reference fold" reduction_matches_reference;
        tc "bit-identical backends x pools" reduction_bit_identical_backends_pools;
        reduction_qcheck_partial_vs_executor;
        tc "geometry checks" reduction_geometry_checks;
      ] );
    ( "reduce.allreduce",
      [
        tc "exact collective" allreduce_exact;
        tc "single rank" allreduce_single_rank;
        tc "validates partials" allreduce_validates;
        tc "rejects stray message" allreduce_rejects_stray_message;
        tc "netmodel allreduce time" allreduce_time_model;
        tc "scaling counts allreduces" scaling_counts_allreduces;
      ] );
    ( "reduce.distributed",
      [
        slow "bit-identical engines x backends x pools"
          distributed_reduce_bit_identical;
        tc "rejects dot" distributed_reduce_rejects_dot;
        tc "counts traffic" distributed_reduce_counts_traffic;
        tc "steady-state allocation" distributed_reduce_allocation_pinned;
        tc "graph temporal depth rejected" graph_temporal_depth_rejected;
        tc "effective engine reports clamp" effective_depth_reports_clamp;
      ] );
  ]
