(* Tests for AOT code generation: structural checks on all targets and a
   compile-and-run round trip against the interpreter where a C compiler is
   available. *)

open Helpers
module Codegen = Msc_codegen.Codegen
module Schedule = Msc_schedule.Schedule

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.equal (String.sub haystack i n) needle || scan (i + 1)) in
  scan 0

let count_char c s =
  String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 s

let balanced_braces s = count_char '{' s = count_char '}' s

let fixture () =
  let k, st = stencil_3d7pt ~n:12 () in
  (k, st, Schedule.sunway_canonical ~tile:[| 2; 4; 6 |] k)

let target_names () =
  check_bool "cpu" true (Codegen.target_of_string "cpu" = Ok Codegen.Cpu);
  check_bool "matrix alias" true (Codegen.target_of_string "matrix" = Ok Codegen.Openmp);
  check_bool "sunway alias" true (Codegen.target_of_string "sunway" = Ok Codegen.Athread);
  check_bool "unknown" true (Result.is_error (Codegen.target_of_string "gpu"))

let cpu_bundle () =
  let _, st, sched = fixture () in
  let files = Codegen.generate st sched Codegen.Cpu in
  check_int "two files" 2 (List.length files);
  let src = (List.hd files).Codegen.contents in
  check_bool "braces balanced" true (balanced_braces src);
  List.iter
    (fun needle -> check_bool needle true (contains ~needle src))
    [ "msc_step"; "msc_init"; "msc_report"; "int main"; "#define IDX"; "win[" ]

let openmp_has_pragma () =
  let _, st, _ = fixture () in
  let k = List.hd (Msc_ir.Stencil.kernels st) in
  let sched = Schedule.matrix_canonical ~tile:[| 2; 4; 6 |] ~threads:32 k in
  let files = Codegen.generate st sched Codegen.Openmp in
  let src = (List.hd files).Codegen.contents in
  check_bool "omp pragma" true (contains ~needle:"#pragma omp parallel for num_threads(32)" src)

let cpu_has_no_pragma () =
  let _, st, sched = fixture () in
  let files = Codegen.generate st sched Codegen.Cpu in
  let src = (List.hd files).Codegen.contents in
  check_bool "no pragma" false (contains ~needle:"#pragma omp" src)

let athread_bundle () =
  let _, st, sched = fixture () in
  let files = Codegen.generate st sched Codegen.Athread in
  check_int "master+slave+makefile" 3 (List.length files);
  let master = List.find (fun f -> contains ~needle:"master" f.Codegen.name) files in
  let slave = List.find (fun f -> contains ~needle:"slave" f.Codegen.name) files in
  check_bool "master braces" true (balanced_braces master.Codegen.contents);
  check_bool "slave braces" true (balanced_braces slave.Codegen.contents);
  List.iter
    (fun needle ->
      check_bool ("master " ^ needle) true (contains ~needle master.Codegen.contents))
    [ "athread_init"; "athread_spawn"; "athread_join"; "athread_halt" ];
  List.iter
    (fun needle ->
      check_bool ("slave " ^ needle) true (contains ~needle slave.Codegen.contents))
    [
      "athread_get_id";
      "athread_get(PE_MODE";
      "athread_put(PE_MODE";
      "__thread_local";
      "task += CPES";
      "buf_read_1";
      "buf_read_2";
      "buf_write";
    ]

let athread_body_follows_backend () =
  (* Both backends sweep with one per-point fold, so the slave computes
     every point as one fused sum of the terms, whatever the config: the
     fixture's two terms in one assignment, no [+=] pass. A State term
     reads its own time slot's buffer. *)
  let slave_src ?config st sched =
    let files = Codegen.generate ?config st sched Codegen.Athread in
    (List.find (fun f -> contains ~needle:"slave" f.Codegen.name) files)
      .Codegen.contents
  in
  let _, st, sched = fixture () in
  let default = slave_src st sched in
  check_bool "no per-term accumulation" false (contains ~needle:"] += (ELEM)(" default);
  let occurrences needle s =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length s then acc
      else go (i + 1) (if String.equal (String.sub s i n) needle then acc + 1 else acc)
    in
    go 0 0
  in
  check_int "one output assignment" 1 (occurrences "buf_write[BIDX_W(u0, u1, u2)] = (ELEM)(" default);
  check_bool "both terms in one sum" true
    (contains ~needle:"))) + 0.5 * (" default);
  check_bool "braces balanced" true (balanced_braces default);
  List.iter
    (fun backend ->
      check_bool
        (Msc_exec.Backend.to_string backend ^ " config emits the same slave")
        true
        (String.equal default
           (slave_src ~config:(Msc_exec.Exec.Config.make ~backend ()) st sched)))
    Msc_exec.Backend.all;
  let wave = stencil_wave2d ~n:16 () in
  let k = List.hd (Msc_ir.Stencil.kernels wave) in
  let wave_src = slave_src wave (Schedule.sunway_canonical ~tile:[| 4; 8 |] k) in
  check_bool "State term reads its time slot" true
    (contains ~needle:"buf_read_2[BIDX_R(" wave_src
    && not (contains ~needle:"buf_aux_buf_read" wave_src))

let athread_spm_guard () =
  (* A tile whose window buffers exceed 64 KB must be rejected. *)
  let grid = Msc_frontend.Builder.def_tensor_3d ~time_window:2 ~halo:1 "B" Msc_ir.Dtype.F64 64 64 64 in
  let k = Msc_frontend.Builder.star_kernel ~name:"S" ~radius:1 grid in
  let st = Msc_frontend.Builder.two_step ~name:"big" k in
  let sched = Schedule.sunway_canonical ~tile:[| 32; 32; 64 |] k in
  check_bool "SPM overflow rejected" true
    (try ignore (Codegen.generate st sched Codegen.Athread); false
     with Invalid_argument _ -> true)

let makefiles () =
  let _, st, sched = fixture () in
  List.iter
    (fun (target, needle) ->
      let files = Codegen.generate st sched target in
      let mk = List.find (fun f -> f.Codegen.name = "Makefile") files in
      check_bool needle true (contains ~needle mk.Codegen.contents))
    [ (Codegen.Cpu, "gcc"); (Codegen.Openmp, "-fopenmp"); (Codegen.Athread, "sw5cc") ]

let loc_positive () =
  let _, st, sched = fixture () in
  let files = Codegen.generate st sched Codegen.Cpu in
  check_bool "loc > 40" true (Codegen.total_loc files > 40)

let illegal_schedule_rejected () =
  let k, st = stencil_3d7pt ~n:12 () in
  ignore k;
  let bad = Schedule.tile Schedule.empty [| 500; 1; 1 |] in
  check_bool "rejected" true
    (try ignore (Codegen.generate st bad Codegen.Cpu); false
     with Invalid_argument _ -> true)

let write_files_creates_dirs () =
  let _, st, sched = fixture () in
  let files = Codegen.generate st sched Codegen.Cpu in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "msc_test_nested/deep/dir" in
  Codegen.write_files ~dir files;
  check_bool "file written" true (Sys.file_exists (Filename.concat dir "3d7pt_star.c"))

(* Round trips: compiled generated C must equal the interpreter bit-for-bit
   (fp64). Exercises remainder tiles and the OpenMP path too. *)
let roundtrip ~steps st sched target =
  if not (Codegen.Toolchain.available ()) then ()
  else begin
    let rt = Msc_exec.Runtime.create st in
    Msc_exec.Runtime.run rt steps;
    let expected = Msc_exec.Grid.checksum (Msc_exec.Runtime.current rt) in
    let files = Codegen.generate ~steps st sched target in
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "msc_test_rt_%d" (Hashtbl.hash (st.Msc_ir.Stencil.name, steps, target)))
    in
    match Codegen.Toolchain.compile_and_run ~steps ~dir files with
    | Ok r ->
        let rel = Float.abs (r.Codegen.Toolchain.checksum -. expected) /. Float.max 1.0 (Float.abs expected) in
        check_bool "checksum matches" true (rel < 1e-12)
    | Error msg -> Alcotest.fail msg
  end

let roundtrip_cpu () =
  let _, st, sched = fixture () in
  roundtrip ~steps:4 st sched Codegen.Cpu

let roundtrip_openmp () =
  let k, st = stencil_3d7pt ~n:12 () in
  roundtrip ~steps:4 st (Schedule.matrix_canonical ~tile:[| 2; 4; 6 |] ~threads:4 k) Codegen.Openmp

let roundtrip_remainder_tiles () =
  (* 13 is prime: every tile dimension has a remainder. *)
  let k, st = stencil_3d7pt ~n:13 () in
  roundtrip ~steps:3 st (Schedule.cpu_canonical ~tile:[| 4; 5; 6 |] ~threads:2 k) Codegen.Openmp

let roundtrip_wave () =
  let st = stencil_wave2d ~n:16 () in
  let k = List.hd (Msc_ir.Stencil.kernels st) in
  roundtrip ~steps:5 st (Schedule.cpu_canonical ~tile:[| 4; 8 |] ~threads:2 k) Codegen.Cpu

let roundtrip_box_2d () =
  let k, st = stencil_2d9pt_box ~m:15 ~n:17 () in
  roundtrip ~steps:4 st (Schedule.cpu_canonical ~tile:[| 5; 7 |] ~threads:2 k) Codegen.Cpu

let suites =
  [
    ( "codegen.structure",
      [
        tc "target names" target_names;
        tc "cpu bundle" cpu_bundle;
        tc "openmp pragma" openmp_has_pragma;
        tc "cpu pragma-free" cpu_has_no_pragma;
        tc "athread bundle" athread_bundle;
        tc "athread body follows backend" athread_body_follows_backend;
        tc "athread SPM guard" athread_spm_guard;
        tc "makefiles" makefiles;
        tc "loc positive" loc_positive;
        tc "illegal schedule" illegal_schedule_rejected;
        tc "write_files mkdir -p" write_files_creates_dirs;
      ] );
    ( "codegen.roundtrip",
      [
        tc "cpu" roundtrip_cpu;
        tc "openmp" roundtrip_openmp;
        tc "remainder tiles" roundtrip_remainder_tiles;
        tc "wave (State terms)" roundtrip_wave;
        tc "2d box" roundtrip_box_2d;
      ] );
  ]
