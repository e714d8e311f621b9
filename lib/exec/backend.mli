(** Execution backends: how kernel sweeps run on the host.

    The paper's premise is {e generated} code running at hardware speed; the
    interpreter ({!Interp}) is the semantic reference, and {!Compiled_c}
    closes the loop by emitting one fused whole-sweep C kernel per
    (plan, stage) at runtime ({!Jit}), compiled with the host toolchain and
    loaded via [dlopen]. Both produce bit-identical results; a compiled
    stage falls back to the interpreter when no toolchain is available or
    its fused sweep cannot be emitted. *)

type t =
  | Interp  (** the in-process interpreter (always available) *)
  | Compiled_c
      (** one fused C sweep per (plan, stage), compiled with [cc] and
          loaded via [dlopen] *)

val all : t list
val to_string : t -> string
(** ["interp"], ["compiled_c"]. *)

val of_string : string -> (t, string) result
(** Accepts the {!to_string} forms plus common spellings
    (["interpreter"], ["c"], ["compiled-c"], ...). *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val compute_scale : t -> float
(** Modelled compute-time multiplier relative to compiled C, for the
    processor simulators and the tuner's cost model: [1.0] for
    [Compiled_c], the measured interpreter penalty for [Interp]. *)

(** {1 Compiled-kernel calling conventions}

    Every compiled kernel is loaded back as one function over the flat
    padded arrays. *)

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
    {!Jit.sweep_aux_slots}). Geometry is baked at emission time;
    callers guard with [Interp.check_grids]/[check_range] per kernel term
    exactly as the interpreter does. *)

type reduce_fn =
  int -> float array -> float array -> int array -> int array -> float
(** [fn op a b lo hi]: a compiled reduction partial over the interior box
    [\[lo, hi)] of the baked geometry. [op] is {!Msc_ir.Reduce.code}; [b]
    is read only by the binary operators (callers pass [a] again for unary
    ops). The accumulation is strictly sequential in row-major order —
    bit-identical to the interpreter's reference partial. *)
