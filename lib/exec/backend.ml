type t = Interp | Compiled_c

let all = [ Interp; Compiled_c ]

let to_string = function Interp -> "interp" | Compiled_c -> "compiled_c"

let of_string s =
  match String.lowercase_ascii s with
  | "interp" | "interpreter" -> Ok Interp
  | "c" | "cc" | "compiled_c" | "compiled-c" -> Ok Compiled_c
  | _ -> Error (Printf.sprintf "unknown backend %S (expected interp|compiled_c)" s)

let pp ppf b = Format.pp_print_string ppf (to_string b)
let equal (a : t) b = a = b

(* Calibrated against the kernels bench group: the interpreter's per-point
   dispatch runs roughly an order of magnitude under the compiled sweeps. *)
let compute_scale = function Interp -> 25.0 | Compiled_c -> 1.0

type sweep_term =
  | Sweep_state of { scale : float }
  | Sweep_kernel of { scale : float; kernel : Msc_ir.Kernel.t; halo : int array }

let sweep_terms ~halo (st : Msc_ir.Stencil.t) =
  List.map
    (fun { Msc_ir.Stencil.scale; kernel; dt = _ } ->
      match kernel with
      | None -> Sweep_state { scale }
      | Some kernel -> Sweep_kernel { scale; kernel; halo })
    (Msc_ir.Stencil.terms st)

let sweep_aux_slots terms =
  List.concat_map
    (function
      | Sweep_state _ -> []
      | Sweep_kernel { kernel; _ } -> Msc_ir.Kernel.aux_reads kernel)
    terms

type sweep_fn =
  ?shifts:int array ->
  float array array ->
  float array ->
  float array array ->
  int array ->
  int array ->
  unit

type reduce_fn =
  int -> float array -> float array -> int array -> int array -> float array -> int -> unit
