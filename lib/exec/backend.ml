type t = Interp | Native_ocaml | Compiled_c

let all = [ Interp; Native_ocaml; Compiled_c ]

let to_string = function
  | Interp -> "interp"
  | Native_ocaml -> "native_ocaml"
  | Compiled_c -> "compiled_c"

let of_string s =
  match String.lowercase_ascii s with
  | "interp" | "interpreter" -> Ok Interp
  | "native" | "native_ocaml" | "native-ocaml" | "ocaml" -> Ok Native_ocaml
  | "c" | "cc" | "compiled_c" | "compiled-c" -> Ok Compiled_c
  | _ ->
      Error
        (Printf.sprintf "unknown backend %S (expected interp|native|compiled-c)" s)

let pp ppf b = Format.pp_print_string ppf (to_string b)
let equal (a : t) b = a = b

(* Calibrated against the kernels bench group: the interpreter's per-point
   dispatch runs roughly an order of magnitude under the compiled sweeps;
   plain ocamlopt output trails vectorized C by a small constant. *)
let compute_scale = function
  | Interp -> 25.0
  | Native_ocaml -> 1.6
  | Compiled_c -> 1.0

let wb_apply = 0
let wb_apply_scaled = 1
let wb_accumulate = 2

type kernel_fn =
  int ->
  float ->
  float array ->
  float array ->
  float array array ->
  int array ->
  int array ->
  unit

type sweep_fn =
  float array array ->
  float array ->
  float array array ->
  int array ->
  int array ->
  unit

type reduce_fn =
  int -> float array -> float array -> int array -> int array -> float
