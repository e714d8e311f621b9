(** Execution backends: how kernel sweeps run on the host.

    The paper's premise is {e generated} code running at hardware speed; the
    interpreter ({!Interp}) is the semantic reference, and the two compiled
    backends close the loop by emitting a specialized kernel per
    (plan, term) at runtime ({!Jit}) — a flat-array OCaml kernel loaded via
    [Dynlink], or C compiled with the host toolchain and loaded via
    [dlopen]. All three produce bit-identical results; the compiled
    backends fall back to the interpreter per term when no toolchain is
    available or a kernel is not compilable (tree-mode expressions). *)

type t =
  | Interp  (** the in-process interpreter (always available) *)
  | Native_ocaml
      (** specialized OCaml emitted per (plan, term), compiled with
          [ocamlopt -shared] and loaded via [Dynlink] *)
  | Compiled_c
      (** specialized C emitted per (plan, term), compiled with [cc] and
          loaded via [dlopen] *)

val all : t list
val to_string : t -> string
(** ["interp"], ["native_ocaml"], ["compiled_c"]. *)

val of_string : string -> (t, string) result
(** Accepts the {!to_string} forms plus common spellings
    (["native"], ["c"], ["compiled-c"], ...). *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val compute_scale : t -> float
(** Modelled compute-time multiplier relative to compiled C, for the
    processor simulators and the tuner's cost model: [1.0] for
    [Compiled_c], a small constant for [Native_ocaml], and the measured
    interpreter penalty for [Interp]. *)

(** {1 Compiled-kernel calling convention}

    Every compiled kernel — OCaml or C — is loaded back as one uniform
    function over the flat padded arrays. The three writeback codes mirror
    {!Interp}'s sweep flavours. *)

val wb_apply : int  (** [dst\[p\] <- K(src)\[p\]] *)

val wb_apply_scaled : int  (** [dst\[p\] <- scale * K(src)\[p\]] *)

val wb_accumulate : int  (** [dst\[p\] <- dst\[p\] + scale * K(src)\[p\]] *)

type kernel_fn =
  int ->
  float ->
  float array ->
  float array ->
  float array array ->
  int array ->
  int array ->
  unit
(** [fn wb scale src dst aux lo hi]: writeback code, scale, src/dst padded
    data, per-term aux data (bilinear kernels; else [[||]]), and the
    interior-coordinate range. The geometry (shape, halo, strides) is baked
    into the kernel at emission time; callers must pass grids of the
    compiled geometry (enforced by {!Runtime} via [Interp.check_grids]). *)

type sweep_fn =
  float array array ->
  float array ->
  float array array ->
  int array ->
  int array ->
  unit
(** [fn srcs dst aux lo hi]: a {e fused} whole-sweep kernel covering every
    term of a stencil update over the range, write-through only: the first
    term seeds a per-point accumulator, later terms fold into it with
    their scales baked in, and [dst] is written once per point (its prior
    contents are never read). Long sweeps run as several passes over
    column strips inside the call; the per-point operation sequence is the
    interpreter's either way.

    [srcs] holds one padded source array {e per term}, in stencil term
    order (terms reading the same past state repeat the array); [aux] is
    the concatenation of every term's aux slots (see
    {!Jit.sweep_term_aux_names}). Geometry is baked at emission time;
    callers guard with [Interp.check_grids]/[check_range] per kernel term
    exactly as the interpreter does. *)

type reduce_fn =
  int -> float array -> float array -> int array -> int array -> float
(** [fn op a b lo hi]: a compiled reduction partial over the interior box
    [\[lo, hi)] of the baked geometry. [op] is {!Msc_ir.Reduce.code}; [b]
    is read only by the binary operators (callers pass [a] again for unary
    ops). The accumulation is strictly sequential in row-major order —
    bit-identical to the interpreter's reference partial. *)
