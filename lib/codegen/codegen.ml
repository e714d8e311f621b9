open Msc_ir
module Plan = Msc_schedule.Plan
module Machine = Msc_machine.Machine

type target = Cpu | Openmp | Athread

type file = { name : string; contents : string }

let target_of_string = function
  | "cpu" | "c" -> Ok Cpu
  | "openmp" | "matrix" | "omp" -> Ok Openmp
  | "athread" | "sunway" -> Ok Athread
  | s -> Error (Printf.sprintf "unknown target %S (expected cpu|openmp|sunway)" s)

let target_to_string = function Cpu -> "cpu" | Openmp -> "openmp" | Athread -> "sunway"

(* Each backend is lowered against the machine descriptor it targets, so
   capacity guards (SPM, caches) come from the same source the simulators
   and autotuner use. *)
let machine_of_target = function
  | Cpu -> Machine.xeon_server
  | Openmp -> Machine.matrix_node
  | Athread -> Machine.sunway_cg

let fused_sweep_source = Emit_cpu.fused_sweep_source

let default_spm_capacity_bytes = 64 * 1024

let generate ?steps ?(bc = Msc_exec.Bc.Dirichlet 0.0) ?config (st : Stencil.t)
    schedule target =
  let machine = machine_of_target target in
  let plan =
    match Plan.compile ~machine st schedule with
    | Ok p -> p
    | Error msg -> invalid_arg ("Codegen.generate: " ^ msg)
  in
  let name = st.Stencil.name in
  match target with
  | Cpu ->
      [
        {
          name = name ^ ".c";
          contents = Emit_cpu.generate ?steps ~bc ?config ~omp:false plan;
        };
        { name = "Makefile"; contents = Makefile_gen.cpu ~name };
      ]
  | Openmp ->
      [
        {
          name = name ^ ".c";
          contents = Emit_cpu.generate ?steps ~bc ?config ~omp:true plan;
        };
        { name = "Makefile"; contents = Makefile_gen.openmp ~name };
      ]
  | Athread ->
      if not (Emit_common.bc_is_trivial bc) then
        invalid_arg
          "Codegen.generate: non-default boundary conditions are not emitted for the            Sunway target yet";
      let footprint = plan.Plan.working_set_bytes in
      let capacity =
        Option.value plan.Plan.spm_capacity_bytes ~default:default_spm_capacity_bytes
      in
      if footprint > capacity then
        invalid_arg
          (Printf.sprintf
             "Codegen.generate: schedule needs %d B of scratchpad but the CPE SPM is %d B"
             footprint capacity);
      [
        {
          name = name ^ "_master.c";
          contents = Emit_athread.generate_master ?steps plan;
        };
        {
          name = name ^ "_slave.c";
          contents = Emit_athread.generate_slave plan;
        };
        { name = "Makefile"; contents = Makefile_gen.athread ~name };
      ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ())
  end

let write_files ~dir files =
  mkdir_p dir;
  List.iter
    (fun f ->
      let oc = open_out (Filename.concat dir f.name) in
      output_string oc f.contents;
      close_out oc)
    files

let total_loc files =
  List.fold_left
    (fun acc f ->
      acc
      + List.length
          (List.filter
             (fun l -> String.length (String.trim l) > 0)
             (String.split_on_char '\n' f.contents)))
    0 files

module Toolchain = struct
  type run_result = { checksum : float; maxabs : float; output : string }

  let command_output cmd =
    let tmp = Filename.temp_file "msc_toolchain" ".out" in
    let rc = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote tmp)) in
    let ic = open_in tmp in
    let n = in_channel_length ic in
    let out = really_input_string ic n in
    close_in ic;
    Sys.remove tmp;
    (rc, out)

  let available () =
    let rc, _ = command_output "cc --version" in
    rc = 0

  let parse_report output =
    (* Find the "checksum <x> maxabs <y>" line the generated report emits. *)
    let lines = String.split_on_char '\n' output in
    let parsed =
      List.find_map
        (fun l ->
          match String.split_on_char ' ' (String.trim l) with
          | [ "checksum"; c; "maxabs"; m ] -> (
              match (float_of_string_opt c, float_of_string_opt m) with
              | Some c, Some m -> Some (c, m)
              | _ -> None)
          | _ -> None)
        lines
    in
    match parsed with
    | Some (checksum, maxabs) -> Ok { checksum; maxabs; output }
    | None -> Error (Printf.sprintf "no report line in output:\n%s" output)

  let compile_and_run ?(cc = "cc") ?steps ~dir files =
    write_files ~dir files;
    match List.find_opt (fun f -> Filename.check_suffix f.name ".c") files with
    | None -> Error "no .c file in bundle"
    | Some src ->
        let uses_omp =
          let needle = "#pragma omp" in
          let len = String.length needle in
          let s = src.contents in
          let rec scan i =
            i + len <= String.length s
            && (String.equal (String.sub s i len) needle || scan (i + 1))
          in
          scan 0
        in
        let exe = Filename.concat dir "msc_generated" in
        let cmd =
          Printf.sprintf "%s -O2 -std=c11 %s -o %s %s -lm" cc
            (if uses_omp then "-fopenmp" else "")
            (Filename.quote exe)
            (Filename.quote (Filename.concat dir src.name))
        in
        let rc, compile_out = command_output cmd in
        if rc <> 0 then Error (Printf.sprintf "compile failed (%d):\n%s" rc compile_out)
        else begin
          let run_cmd =
            match steps with
            | Some n -> Printf.sprintf "%s %d" (Filename.quote exe) n
            | None -> Filename.quote exe
          in
          let rc, run_out = command_output run_cmd in
          if rc <> 0 then Error (Printf.sprintf "run failed (%d):\n%s" rc run_out)
          else parse_report run_out
        end
end
