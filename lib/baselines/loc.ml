open Msc_ir
module Schedule = Msc_schedule.Schedule
module Pretty = Msc_frontend.Pretty

type row = {
  benchmark : string;
  msc_sunway : int;
  openacc : int;
  msc_matrix : int;
  openmp : int;
}

let msc_loc (st : Stencil.t) ~schedule ~mpi_shape =
  let kernel_name =
    match Stencil.kernels st with k :: _ -> k.Kernel.name | [] -> "S"
  in
  let schedule_lines = Schedule.to_msc_lines schedule ~kernel_name in
  Pretty.loc (Pretty.program ~schedule_lines ~mpi_shape st)

(* Shared helpers for the hand-written baselines: both are rendered in the
   fully spelled-out style of manually tuned codes (per-tap accumulation,
   explicit coefficients), which is what makes their LoC grow with order. *)

let coefficient_lines line (st : Stencil.t) =
  List.iter
    (fun k ->
      List.iter
        (fun (name, v) ->
          line (Printf.sprintf "static const double %s = %.17g;" name v))
        k.Kernel.bindings)
    (Stencil.kernels st)

module Emit_common = Msc_codegen.Emit_common

(* One accumulation statement per tap — the unrolled style of hand-tuned
   codes, whose LoC grows with the stencil order. *)
let tap_statements (st : Stencil.t) ~vars ~array_of_dt =
  let terms = Stencil.terms st in
  List.concat_map
    (fun (t : Stencil.term) ->
      let array = array_of_dt t.Stencil.dt in
      match t.Stencil.kernel with
      | None ->
          [
            Printf.sprintf "acc += %.17g * %s[IDX(%s)];" t.Stencil.scale array
              (String.concat ", " vars);
          ]
      | Some k -> (
          match Kernel.taps k with
          | Some taps ->
              List.map
                (fun (tap : Expr.tap) ->
                  let subs =
                    List.mapi
                      (fun d v ->
                        let off = tap.Expr.offsets.(d) in
                        if off = 0 then v else Printf.sprintf "%s + (%d)" v off)
                      vars
                  in
                  Printf.sprintf "acc += %.17g * %s[IDX(%s)];"
                    (t.Stencil.scale *. tap.Expr.coeff)
                    array (String.concat ", " subs))
                taps
          | None ->
              [ Printf.sprintf "acc += %s_body(%s, ...);" k.Kernel.name array ]))
    terms

let dims_macros line (st : Stencil.t) =
  let grid = st.Stencil.grid in
  Array.iteri (fun d n -> line (Printf.sprintf "#define N%d %d" d n)) grid.Tensor.shape;
  Array.iteri (fun d h -> line (Printf.sprintf "#define H%d %d" d h)) grid.Tensor.halo

let vars_of (st : Stencil.t) =
  match Stencil.kernels st with
  | k :: _ -> k.Kernel.index_vars
  | [] -> [ "i" ]

let openacc_source (st : Stencil.t) =
  let buf = Buffer.create 4096 in
  let line s = Buffer.add_string buf (s ^ "\n") in
  let vars = vars_of st in
  let nd = List.length vars in
  line "/* hand-written OpenACC implementation for Sunway */";
  line "#include <stdio.h>";
  line "#include <stdlib.h>";
  line "#include <math.h>";
  dims_macros line st;
  line "#define IDX(...) /* padded row-major index */";
  coefficient_lines line st;
  let tw = Stencil.time_window st in
  let params =
    String.concat ", " (List.init tw (fun k -> Printf.sprintf "const double *s%d" (k + 1)))
  in
  line (Printf.sprintf "void step(%s, double *out) {" params);
  line "#pragma acc data copyin(s1[0:TOTAL]) copyout(out[0:TOTAL])";
  line "  {";
  line "#pragma acc parallel loop tile(8,8,32) gang vector";
  List.iteri
    (fun d v ->
      line
        (Printf.sprintf "%s  for (int %s = 0; %s < N%d; ++%s) {"
           (String.make (2 * d) ' ') v v d v))
    vars;
  line (Printf.sprintf "%s  double acc = 0.0;" (String.make (2 * nd) ' '));
  List.iter
    (fun stmt -> line (Printf.sprintf "%s  %s" (String.make (2 * nd) ' ') stmt))
    (tap_statements st ~vars ~array_of_dt:(Printf.sprintf "s%d"));
  line
    (Printf.sprintf "%s  out[IDX(%s)] = acc;" (String.make (2 * nd) ' ')
       (String.concat ", " vars));
  List.iteri
    (fun d _ -> line (Printf.sprintf "%s  }" (String.make (2 * (nd - 1 - d)) ' ')))
    vars;
  line "  }";
  line "}";
  line "int main(void) { /* allocation, init, time loop, report */ return 0; }";
  Buffer.contents buf

let openmp_source (st : Stencil.t) ~tile ~threads =
  let buf = Buffer.create 8192 in
  let line s = Buffer.add_string buf (s ^ "\n") in
  let vars = vars_of st in
  let nd = List.length vars in
  line "/* hand-written tiled OpenMP implementation for Matrix */";
  line "#include <stdio.h>";
  line "#include <stdlib.h>";
  line "#include <string.h>";
  line "#include <math.h>";
  line "#include <omp.h>";
  dims_macros line st;
  Array.iteri (fun d t -> line (Printf.sprintf "#define T%d %d" d t)) tile;
  line "#define IDX(...) /* padded row-major index */";
  coefficient_lines line st;
  let tw = Stencil.time_window st in
  let params =
    String.concat ", " (List.init tw (fun k -> Printf.sprintf "const double *s%d" (k + 1)))
  in
  line (Printf.sprintf "void step(%s, double *restrict out) {" params);
  line (Printf.sprintf "#pragma omp parallel for num_threads(%d) schedule(static)" threads);
  (* Outer tile loops, explicit remainder handling, inner loops. *)
  List.iteri
    (fun d _ ->
      line (Printf.sprintf "  for (int t%d = 0; t%d < (N%d + T%d - 1) / T%d; ++t%d) {" d d d d d d))
    vars;
  List.iteri
    (fun d _ ->
      line (Printf.sprintf "    const int lo%d = t%d * T%d;" d d d);
      line (Printf.sprintf "    const int hi%d = lo%d + T%d < N%d ? lo%d + T%d : N%d;" d d d d d d d))
    vars;
  List.iteri
    (fun d v -> line (Printf.sprintf "    for (int %s = lo%d; %s < hi%d; ++%s) {" v d v d v))
    vars;
  line "      double acc = 0.0;";
  List.iter
    (fun stmt -> line (Printf.sprintf "      %s" stmt))
    (tap_statements st ~vars ~array_of_dt:(Printf.sprintf "s%d"));
  line (Printf.sprintf "      out[IDX(%s)] = acc;" (String.concat ", " vars));
  List.iteri (fun _ _ -> line "    }") vars;
  List.iteri (fun _ _ -> line "  }") vars;
  ignore nd;
  line "}";
  line "static void init(double *g) { /* deterministic field */ }";
  line "static void report(const double *g) { /* checksum */ }";
  line "int main(int argc, char **argv) {";
  line "  /* window allocation, initial states, ring-buffer time loop */";
  line "  return 0;";
  line "}";
  Buffer.contents buf

let count text =
  List.length
    (List.filter
       (fun l -> String.length (String.trim l) > 0)
       (String.split_on_char '\n' text))

let row (st : Stencil.t) ~sunway_schedule ~matrix_schedule ~matrix_tile ~mpi_shape =
  {
    benchmark = st.Stencil.name;
    msc_sunway = msc_loc st ~schedule:sunway_schedule ~mpi_shape;
    openacc = count (openacc_source st);
    msc_matrix = msc_loc st ~schedule:matrix_schedule ~mpi_shape;
    openmp = count (openmp_source st ~tile:matrix_tile ~threads:32);
  }
