(* Tests for the Plan layer: lowering metrics, tile-task partitioning
   (qcheck), plan-driven runtime parity across the whole benchmark suite,
   structural agreement between emitted C and [plan.loops], and the
   memoizing plan cache the auto-tuner relies on. *)

open Helpers
module Schedule = Msc_schedule.Schedule
module Plan = Msc_schedule.Plan
module Loopnest = Msc_schedule.Loopnest
module Codegen = Msc_codegen.Codegen
module Runtime = Msc_exec.Runtime
module Grid = Msc_exec.Grid
module Suite = Msc_benchsuite.Suite
module Machine = Msc_machine.Machine
module Params = Msc_autotune.Params
module Autotune = Msc_autotune.Autotune

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i =
    i + n <= h && (String.equal (String.sub haystack i n) needle || scan (i + 1))
  in
  scan 0

(* First occurrence of [needle] at or after [pos]; returns the position just
   past the match so callers can assert ordering. *)
let index_from haystack pos needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i =
    if i + n > h then None
    else if String.equal (String.sub haystack i n) needle then Some (i + n)
    else scan (i + 1)
  in
  scan pos

(* --- lowering metrics --- *)

let canonical_plan () =
  let k, st = stencil_3d7pt ~n:12 () in
  let sched = Schedule.sunway_canonical ~tile:[| 2; 4; 6 |] k in
  let p = Plan.compile_exn ~machine:Machine.sunway_cg st sched in
  check_int "tiles" (6 * 3 * 2) p.Plan.tiles_count;
  check_int "tasks length" p.Plan.tiles_count (Array.length p.Plan.tasks);
  check_int "tile elems" (2 * 4 * 6) p.Plan.tile_elems;
  check_int "padded elems" (4 * 6 * 8) p.Plan.padded_elems;
  check_int "state streams" 2 p.Plan.n_state_streams;
  check_int "aux streams" 0 p.Plan.n_aux_streams;
  check_int "working set"
    (((2 * (4 * 6 * 8)) + (2 * 4 * 6)) * 8)
    p.Plan.working_set_bytes;
  check_bool "spm capacity from machine" true
    (p.Plan.spm_capacity_bytes = Some (64 * 1024));
  check_bool "fits spm" true (Plan.spm_fits p);
  check_bool "dma plan present" true (p.Plan.dma <> None);
  check_bool "reuse > 1" true (p.Plan.reuse_factor > 1.0);
  (match p.Plan.parallel with
  | Plan.Round_robin 64 -> ()
  | Plan.Seq | Plan.Block _ | Plan.Round_robin _ ->
      Alcotest.fail "expected Round_robin 64");
  Alcotest.(check (list int)) "outer dims canonical" [ 0; 1; 2 ] (Plan.outer_dims p)

let untiled_single_task () =
  let _, st = stencil_3d7pt ~n:10 () in
  let p = Plan.compile_exn st Schedule.empty in
  check_int "one task" 1 p.Plan.tiles_count;
  let lo, hi = p.Plan.tasks.(0) in
  Alcotest.(check (array int)) "lo" [| 0; 0; 0 |] lo;
  Alcotest.(check (array int)) "hi" [| 10; 10; 10 |] hi;
  check_bool "no machine, no capacity" true (p.Plan.spm_capacity_bytes = None);
  check_bool "fits without capacity" true (Plan.spm_fits p)

let invalid_schedule_is_error () =
  let k, st = stencil_3d7pt ~n:8 () in
  let sched = Schedule.sunway_canonical ~tile:[| 16; 2; 2 |] k in
  check_bool "tile > extent rejected" true (Result.is_error (Plan.compile st sched))

let reorder_changes_traversal () =
  let _, st = stencil_3d7pt ~n:8 () in
  let tile = [| 4; 4; 4 |] in
  let tiled = Schedule.tile Schedule.empty tile in
  let canonical =
    Schedule.reorder tiled [ "xo"; "yo"; "zo"; "xi"; "yi"; "zi" ]
  in
  let transposed =
    Schedule.reorder tiled [ "zo"; "yo"; "xo"; "xi"; "yi"; "zi" ]
  in
  let pc = Plan.compile_exn st canonical and pt = Plan.compile_exn st transposed in
  check_int "same tile count" pc.Plan.tiles_count pt.Plan.tiles_count;
  Alcotest.(check (list int)) "canonical outer dims" [ 0; 1; 2 ] (Plan.outer_dims pc);
  Alcotest.(check (list int)) "transposed outer dims" [ 2; 1; 0 ] (Plan.outer_dims pt);
  (* The second task advances the innermost *outer* axis: z canonically,
     x when the outer loops are transposed. *)
  let lo1c, _ = pc.Plan.tasks.(1) and lo1t, _ = pt.Plan.tasks.(1) in
  Alcotest.(check (array int)) "canonical advances z" [| 0; 0; 4 |] lo1c;
  Alcotest.(check (array int)) "transposed advances x" [| 4; 0; 0 |] lo1t

(* --- qcheck: the task array partitions the interior exactly --- *)

let stencil_of_dims dims =
  let open Msc_frontend.Builder in
  match dims with
  | [| m; n |] ->
      let grid = def_tensor_2d ~time_window:2 ~halo:1 "B" Msc_ir.Dtype.F64 m n in
      two_step ~name:"prop2d" (star_kernel ~name:"S" ~radius:1 grid)
  | [| m; n; p |] ->
      let grid = def_tensor_3d ~time_window:2 ~halo:1 "B" Msc_ir.Dtype.F64 m n p in
      two_step ~name:"prop3d" (star_kernel ~name:"S" ~radius:1 grid)
  | _ -> invalid_arg "stencil_of_dims"

let partition_arb =
  let gen =
    let open QCheck.Gen in
    int_range 2 3 >>= fun nd ->
    array_size (return nd) (int_range 3 10) >>= fun dims ->
    array_size (return nd) (int_range 1 12) >>= fun raw_tile ->
    let names = Schedule.dim_names nd in
    let axes =
      List.map (fun n -> n ^ "o") names @ List.map (fun n -> n ^ "i") names
    in
    shuffle_l axes >>= fun perm ->
    (* Legality repair: each [Xi] must come after its [Xo]; swap offending
       pairs so every shuffled nest is a valid reorder. *)
    let arr = Array.of_list perm in
    let index_of name =
      let rec find i = if String.equal arr.(i) name then i else find (i + 1) in
      find 0
    in
    List.iter
      (fun n ->
        let io = index_of (n ^ "o") and ii = index_of (n ^ "i") in
        if ii < io then begin
          arr.(ii) <- n ^ "o";
          arr.(io) <- n ^ "i"
        end)
      names;
    return (dims, raw_tile, Array.to_list arr)
  in
  let print (dims, tile, perm) =
    let arr a =
      String.concat "," (List.map string_of_int (Array.to_list a))
    in
    Printf.sprintf "dims=[%s] tile=[%s] perm=[%s]" (arr dims) (arr tile)
      (String.concat ";" perm)
  in
  QCheck.make ~print gen

let partition_prop (dims, raw_tile, perm) =
  let nd = Array.length dims in
  let tile = Array.mapi (fun d t -> min t dims.(d)) raw_tile in
  let st = stencil_of_dims dims in
  let sched = Schedule.reorder (Schedule.tile Schedule.empty tile) perm in
  match Plan.compile st sched with
  | Error msg -> QCheck.Test.fail_reportf "plan rejected: %s" msg
  | Ok p ->
      let strides = Array.make nd 1 in
      for d = nd - 2 downto 0 do
        strides.(d) <- strides.(d + 1) * dims.(d + 1)
      done;
      let total = Array.fold_left ( * ) 1 dims in
      let seen = Array.make total 0 in
      Array.iter
        (fun (lo, hi) ->
          let coord = Array.make nd 0 in
          let rec walk d =
            if d = nd then begin
              let idx = ref 0 in
              for i = 0 to nd - 1 do
                idx := !idx + (coord.(i) * strides.(i))
              done;
              seen.(!idx) <- seen.(!idx) + 1
            end
            else
              for c = lo.(d) to hi.(d) - 1 do
                coord.(d) <- c;
                walk (d + 1)
              done
          in
          walk 0)
        p.Plan.tasks;
      Array.for_all (fun c -> c = 1) seen
      && Array.length p.Plan.tasks = p.Plan.tiles_count

(* --- interior/shell split (the overlapped protocol's phases) --- *)

let split_arb =
  let gen =
    let open QCheck.Gen in
    int_range 2 3 >>= fun nd ->
    array_size (return nd) (int_range 3 10) >>= fun dims ->
    array_size (return nd) (int_range 1 12) >>= fun raw_tile ->
    array_size (return nd) (pair (int_range 0 10) (int_range 0 10))
    >>= fun raw_core -> return (dims, raw_tile, raw_core)
  in
  let print (dims, tile, core) =
    let arr a = String.concat "," (List.map string_of_int (Array.to_list a)) in
    Printf.sprintf "dims=[%s] tile=[%s] core=[%s]" (arr dims) (arr tile)
      (String.concat ","
         (List.map (fun (a, b) -> Printf.sprintf "%d+%d" a b) (Array.to_list core)))
  in
  QCheck.make ~print gen

(* Property: [split_tasks] against a random (possibly empty or degenerate)
   core box partitions the tile tasks exactly — every cell appears exactly
   once across both halves, interior cells lie inside the core, shell cells
   outside it. *)
let split_partition_prop (dims, raw_tile, raw_core) =
  let nd = Array.length dims in
  let tile = Array.mapi (fun d t -> min t dims.(d)) raw_tile in
  let core_lo = Array.mapi (fun d (a, _) -> min a dims.(d)) raw_core in
  let core_hi =
    Array.mapi (fun d (_, b) -> min (core_lo.(d) + b) dims.(d)) raw_core
  in
  let st = stencil_of_dims dims in
  let sched = Schedule.tile Schedule.empty tile in
  match Plan.compile st sched with
  | Error msg -> QCheck.Test.fail_reportf "plan rejected: %s" msg
  | Ok p ->
      let interior, shell = Plan.split_tasks ~core_lo ~core_hi p.Plan.tasks in
      let strides = Array.make nd 1 in
      for d = nd - 2 downto 0 do
        strides.(d) <- strides.(d + 1) * dims.(d + 1)
      done;
      let total = Array.fold_left ( * ) 1 dims in
      let seen = Array.make total 0 in
      let ok = ref true in
      let walk ~expect_core boxes =
        Array.iter
          (fun (lo, hi) ->
            let coord = Array.make nd 0 in
            let rec go d =
              if d = nd then begin
                let idx = ref 0 in
                let in_core = ref true in
                for i = 0 to nd - 1 do
                  idx := !idx + (coord.(i) * strides.(i));
                  if coord.(i) < core_lo.(i) || coord.(i) >= core_hi.(i) then
                    in_core := false
                done;
                seen.(!idx) <- seen.(!idx) + 1;
                if !in_core <> expect_core then ok := false
              end
              else
                for c = lo.(d) to hi.(d) - 1 do
                  coord.(d) <- c;
                  go (d + 1)
                done
            in
            go 0)
          boxes
      in
      walk ~expect_core:true interior;
      walk ~expect_core:false shell;
      !ok && Array.for_all (fun c -> c = 1) seen

let interior_shell_canonical () =
  (* 8^3 grid, radius-1 star, untiled: the interior is the single [1,7)^3
     box and the shell is one slab per face. *)
  let open Msc_frontend.Builder in
  let grid = def_tensor_3d ~time_window:2 ~halo:1 "B" Msc_ir.Dtype.F64 8 8 8 in
  let st = two_step ~name:"core3d" (star_kernel ~name:"S" ~radius:1 grid) in
  let p = Plan.compile_exn st Schedule.empty in
  let interior, shell = Plan.interior_shell p in
  check_int "one interior box" 1 (Array.length interior);
  check_int "six shell slabs" 6 (Array.length shell);
  let lo, hi = interior.(0) in
  Alcotest.(check (array int)) "core lo" [| 1; 1; 1 |] lo;
  Alcotest.(check (array int)) "core hi" [| 7; 7; 7 |] hi;
  let cells boxes =
    Array.fold_left
      (fun acc (lo, hi) ->
        acc + Array.fold_left ( * ) 1 (Array.mapi (fun d l -> hi.(d) - l) lo))
      0 boxes
  in
  check_int "cells partitioned" (8 * 8 * 8) (cells interior + cells shell)

(* --- plan-driven runtime parity over the whole suite --- *)

let runtime_parity_across_suite () =
  List.iter
    (fun (b : Suite.bench) ->
      let dims =
        if b.Suite.ndim = 2 then [| 32; 32 |] else [| 16; 16; 16 |]
      in
      let st = Suite.stencil ~dims b in
      let k = Suite.kernel_of st in
      let tile =
        Array.mapi (fun d t -> min t dims.(d)) (Schedule.default_tile k)
      in
      let run ?schedule () =
        let rt = Runtime.create ?schedule st in
        Runtime.run rt 3;
        Runtime.current rt
      in
      (* Tile traversal must not change results: the untiled sequential run
         is the pre-refactor reference every plan-driven sweep must match
         bit-for-bit. *)
      let plain = run () in
      let canonical = run ~schedule:(Schedule.sunway_canonical ~tile k) () in
      check_float (b.Suite.name ^ " canonical parity") 0.0
        (Grid.max_rel_error ~reference:plain canonical);
      let names = Schedule.dim_names b.Suite.ndim in
      let reversed_outer =
        List.rev_map (fun n -> n ^ "o") names
        @ List.map (fun n -> n ^ "i") names
      in
      let reordered =
        Schedule.reorder (Schedule.tile Schedule.empty tile) reversed_outer
      in
      let reo = run ~schedule:reordered () in
      check_float (b.Suite.name ^ " reorder parity") 0.0
        (Grid.max_rel_error ~reference:plain reo))
    Suite.all

(* --- emitted C agrees with plan.loops --- *)

let loop_header (plan : Plan.t) (l : Loopnest.loop) =
  let nd = Array.length plan.Plan.tile in
  let names = Schedule.dim_names nd in
  let vars =
    match Msc_ir.Stencil.kernels plan.Plan.stencil with
    | k :: _ -> k.Msc_ir.Kernel.index_vars
    | [] -> List.init nd (Printf.sprintf "v%d")
  in
  match l.Loopnest.role with
  | Loopnest.Full d ->
      let v = List.nth vars d in
      Printf.sprintf "for (int %s = 0; %s < N%d; ++%s)" v v d v
  | Loopnest.Outer _ ->
      let x = l.Loopnest.name in
      Printf.sprintf "for (int %s = 0; %s < %d; ++%s)" x x l.Loopnest.extent x
  | Loopnest.Inner d ->
      let x = l.Loopnest.name in
      Printf.sprintf "for (int %s = 0; %s < %d && %so * %d + %s < N%d; ++%s)" x x
        plan.Plan.tile.(d) (List.nth names d) plan.Plan.tile.(d) x d x

let check_loops_in_source ~what st sched target =
  let plan =
    Plan.compile_exn ~machine:(Codegen.machine_of_target target) st sched
  in
  let files = Codegen.generate st sched target in
  let src =
    (List.find (fun f -> Filename.check_suffix f.Codegen.name ".c") files)
      .Codegen.contents
  in
  (* Every loop of the plan appears, in plan order and with plan bounds. *)
  ignore
    (List.fold_left
       (fun pos l ->
         let header = loop_header plan l in
         match index_from src pos header with
         | Some next -> next
         | None -> Alcotest.failf "%s: missing or misordered loop %S" what header)
       0 plan.Plan.loops)

let emitted_loops_match_plan () =
  let k, st = stencil_3d7pt ~n:12 () in
  check_loops_in_source ~what:"cpu canonical" st
    (Schedule.cpu_canonical ~tile:[| 2; 4; 6 |] k)
    Codegen.Cpu;
  check_loops_in_source ~what:"openmp canonical" st
    (Schedule.matrix_canonical ~tile:[| 2; 4; 6 |] k)
    Codegen.Openmp;
  check_loops_in_source ~what:"cpu untiled" st Schedule.empty Codegen.Cpu

let athread_defines_match_plan () =
  let k, st = stencil_3d7pt ~n:12 () in
  let sched = Schedule.sunway_canonical ~tile:[| 2; 4; 6 |] k in
  let plan = Plan.compile_exn ~machine:Machine.sunway_cg st sched in
  let files = Codegen.generate st sched Codegen.Athread in
  let slave =
    (List.find (fun f -> contains ~needle:"slave" f.Codegen.name) files)
      .Codegen.contents
  in
  Array.iteri
    (fun d t ->
      check_bool
        (Printf.sprintf "tile define T%d" d)
        true
        (contains ~needle:(Printf.sprintf "#define T%d %d" d t) slave))
    plan.Plan.tile;
  check_bool "task count define" true
    (contains ~needle:(Printf.sprintf "#define NTASKS %d" plan.Plan.tiles_count) slave);
  let cpes =
    match plan.Plan.parallel with
    | Plan.Seq -> 64
    | Plan.Block n | Plan.Round_robin n -> n
  in
  check_bool "cpe count define" true
    (contains ~needle:(Printf.sprintf "#define CPES %d" cpes) slave)

(* --- memoizing plan cache --- *)

(* --- Plan digest (the compiled-kernel cache key) --- *)

let digest_keyed_by_inputs () =
  let k, st = stencil_3d7pt ~n:12 () in
  let s1 = Schedule.sunway_canonical ~tile:[| 2; 4; 6 |] k in
  let s2 = Schedule.sunway_canonical ~tile:[| 4; 4; 6 |] k in
  let p1 = Result.get_ok (Plan.compile st s1) in
  let p1' = Result.get_ok (Plan.compile st s1) in
  let p2 = Result.get_ok (Plan.compile st s2) in
  check_string "same inputs, same digest" p1.Plan.digest p1'.Plan.digest;
  check_int "hex md5" 32 (String.length p1.Plan.digest);
  check_bool "schedule changes the digest" true (p1.Plan.digest <> p2.Plan.digest);
  let _, st' = stencil_2d9pt_box () in
  let p3 = Result.get_ok (Plan.compile st' Schedule.empty) in
  check_bool "stencil changes the digest" true (p1.Plan.digest <> p3.Plan.digest)

let cache_memoizes () =
  let k, st = stencil_3d7pt ~n:12 () in
  let s1 = Schedule.sunway_canonical ~tile:[| 2; 4; 6 |] k in
  let s2 = Schedule.sunway_canonical ~tile:[| 4; 4; 6 |] k in
  let c = Plan.Cache.create ~machine:Machine.sunway_cg () in
  let p1 = Result.get_ok (Plan.Cache.compile c st s1) in
  check_int "first is a miss" 1 (Plan.Cache.misses c);
  check_int "no hits yet" 0 (Plan.Cache.hits c);
  let p1' = Result.get_ok (Plan.Cache.compile c st s1) in
  check_int "not re-lowered" 1 (Plan.Cache.misses c);
  check_int "served from memo" 1 (Plan.Cache.hits c);
  check_bool "physically shared plan" true (p1 == p1');
  ignore (Plan.Cache.compile c st s2);
  check_int "distinct schedule lowers" 2 (Plan.Cache.misses c);
  let s = Plan.Cache.stats c in
  check_int "stats hits" 1 s.Plan.Cache.hits;
  check_int "stats misses" 2 s.Plan.Cache.misses

let autotune_lowers_once () =
  let make_stencil dims = Suite.stencil ~dims (Suite.find "3d7pt") in
  let global = [| 64; 64; 64 |] in
  let cache = Plan.Cache.create ~machine:Machine.sunway_cg () in
  let config = { Params.tile = [| 2; 8; 64 |]; mpi_grid = [| 4; 2; 1 |]; depth = 1 } in
  let t1 = Autotune.true_cost ~cache ~make_stencil ~global config in
  let misses_after_first = Plan.Cache.misses cache in
  check_bool "lowered at least once" true (misses_after_first >= 1);
  (* Re-evaluating the same candidate must hit the memo, not re-lower. *)
  let t2 = Autotune.true_cost ~cache ~make_stencil ~global config in
  check_float "same cost" t1 t2;
  check_int "candidate lowered at most once" misses_after_first
    (Plan.Cache.misses cache);
  check_bool "revisit served from cache" true (Plan.Cache.hits cache > 0)

let suites =
  [
    ( "plan.lower",
      [
        tc "canonical metrics" canonical_plan;
        tc "untiled single task" untiled_single_task;
        tc "invalid schedule" invalid_schedule_is_error;
        tc "reorder changes traversal" reorder_changes_traversal;
      ] );
    ( "plan.partition",
      [ qc ~count:200 "tasks cover interior exactly once" partition_arb partition_prop ]
    );
    ( "plan.split",
      [
        qc ~count:200 "interior/shell split is an exact partition" split_arb
          split_partition_prop;
        tc "canonical interior/shell" interior_shell_canonical;
      ] );
    ("plan.parity", [ tc "suite parity (plan-driven runtime)" runtime_parity_across_suite ]);
    ( "plan.codegen",
      [
        tc "emitted loops match plan" emitted_loops_match_plan;
        tc "athread defines match plan" athread_defines_match_plan;
      ] );
    ( "plan.cache",
      [
        tc "digest keyed by stencil and schedule" digest_keyed_by_inputs;
        tc "memoizes (stencil, schedule)" cache_memoizes;
        tc "autotuner lowers once" autotune_lowers_once;
      ] );
  ]
