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

(** {1 Sweep calling convention}

    Both kernel compilers, {!Jit.compile_sweep} and
    {!Interp.compile_sweep}, take a stage's terms as a {!sweep_term} list
    and return one {!sweep_fn} over the flat padded arrays, so the runtime
    dispatches every stage the same way whichever backend built it. *)

type sweep_term =
  | Sweep_state of { scale : float }
      (** the stencil's identity term: [scale * src] *)
  | Sweep_kernel of { scale : float; kernel : Msc_ir.Kernel.t; halo : int array }
      (** a kernel term: [scale * K(src)] over grids of the kernel input's
          shape padded by [halo] *)

val sweep_terms : halo:int array -> Msc_ir.Stencil.t -> sweep_term list
(** The stencil's {!Msc_ir.Stencil.terms} as sweep terms, in term order,
    every kernel term over grids padded by [halo]. *)

val sweep_aux_slots : sweep_term list -> string list
(** The [aux] layout of a sweep: per kernel term in stencil term order,
    the distinct aux tensor names the term reads, in first-use order,
    concatenated. A {!sweep_fn}'s [aux] argument holds one array per
    entry. *)

type sweep_fn =
  ?shifts:int array ->
  float array array ->
  float array ->
  float array array ->
  int array ->
  int array ->
  unit
(** [fn ?shifts srcs dst aux lo hi]: one whole-sweep kernel covering every term of
    a stencil update over the range, write-through only. Per point, the
    first term seeds an accumulator (unscaled when its scale is [1.0],
    else [scale * v]), each later term folds in as [acc + scale * v], and
    [dst] is written once (its prior contents are never read). A kernel
    term's value is its expression tree evaluated as
    {!Msc_ir.Expr.eval} evaluates it, so every [sweep_fn] built from the
    same terms returns the same bits.

    [srcs] holds one padded source array {e per term}, in stencil term
    order (terms reading the same past state repeat the array); [aux]
    holds one array per {!sweep_aux_slots} entry. Geometry is baked at
    compile time and the function performs no validation: callers guard
    each kernel term with [Interp.check_grids]/[check_range] and each
    State term with [Interp.check_state] (or their window forms,
    [check_kernel_window] and [check_state_window]).

    [shifts] gives one base shift per array, laid out as [srcs], then
    [dst], then [aux] (default: empty, every shift 0). An array with shift
    [s] holds only part of the padded box: the element at full-geometry
    flat index [i] lives at [i - s]. A graph runtime's windows are such
    slabs. The shift is applied to the array base when the call is made
    (in the JIT's C stub, and in {!Interp.compile_sweep}), so the compiled
    kernel and its cache key do not depend on it. *)

type reduce_fn =
  int -> float array -> float array -> int array -> int array -> float array -> int -> unit
(** [fn op a b lo hi out i]: a reduction partial over the interior box
    [\[lo, hi)] of the baked geometry, JIT-compiled or the interpreter's
    reference, stored into [out.(i)] (no boxed result). [op] is
    {!Msc_ir.Reduce.code}; [b] is read only by the binary operators
    (callers pass [a] again for unary ops). The accumulation is strictly
    sequential in row-major order — bit-identical to the interpreter's
    reference partial. *)
