(** Pieces shared by all code-generation targets: index macros,
    initial-condition and checksum code, and the scheduled loop nest
    emission. *)

val aux_tensors : Msc_ir.Stencil.t -> Msc_ir.Tensor.t list
(** Distinct coefficient grids read by the stencil's kernels (multi-grid
    stencils, §5.6). Their C parameter name is the tensor name. *)

val state_var : int -> string
(** C identifier for the input-state pointer at [t-dt]: ["s1"], ["s2"], ... *)

val dims_of : Msc_ir.Stencil.t -> int array
val halo_of : Msc_ir.Stencil.t -> int array

val elem_type : Msc_ir.Stencil.t -> string
(** The C scalar type of the grid ([ELEM] expands to it). *)

val emit_prelude : C_writer.t -> Msc_ir.Stencil.t -> unit
(** [#include]s, dimension/halo/padded macros, the [IDX] macro, element
    count macros, and the C scalar type macro [ELEM]. *)

val emit_aux_init_fns : C_writer.t -> Msc_ir.Stencil.t -> unit
(** One [static void msc_init_aux_<name>(ELEM *g)] per coefficient grid,
    writing {!Msc_exec.Runtime.default_aux_init}'s closed form over the
    padded box (halo included). *)

val emit_init_fn : C_writer.t -> Msc_ir.Stencil.t -> unit
(** [static void msc_init(ELEM *g)]: writes the deterministic initial field
    used by the OCaml runtime ({!Msc_exec.Runtime.default_init}) into the
    interior, zeroing the halo, so generated binaries are comparable
    bit-for-bit in spirit with the interpreter. *)

val emit_checksum_fn : C_writer.t -> Msc_ir.Stencil.t -> unit
(** [static void msc_report(const ELEM *g)]: prints ["checksum %.17g maxabs
    %.17g"] over the interior. *)

val subst_params : (string * float) list -> Msc_ir.Expr.t -> Msc_ir.Expr.t
(** Fold coefficient bindings into the expression as float constants.
    @raise Invalid_argument on an unbound parameter. *)

val point_terms :
  Msc_ir.Stencil.t -> index:(dt:int -> Msc_ir.Expr.access -> string) -> string list
(** Each stencil term at one point as a C expression, in term order:
    [(K)] or [scale * (K)], with each kernel expression inlined and its
    coefficient bindings folded in, and a State term as its zero-offset
    read. [index ~dt a] renders a read of the input grid (at [t - dt]) or
    of an aux grid. Summed left to right, the terms perform the runtime
    sweep's per-point fold. *)

val point_assignment : Msc_ir.Stencil.t -> vars:string list -> string
(** The innermost statement: [out[IDX(...)] = term + term + ...;] with each
    kernel expression inlined against its state pointer and coefficient
    bindings folded in. *)

val emit_scheduled_loops :
  C_writer.t ->
  Msc_ir.Stencil.t ->
  plan:Msc_schedule.Plan.t ->
  pragma:(units:int -> string option) ->
  body:(vars:string list -> unit) ->
  unit
(** Emits the loop nest by walking [plan.loops] — the lowered nest the
    simulators cost — tiled with clamped inner bounds when the plan has
    [Outer]/[Inner] roles. [pragma] is asked for an annotation to place
    before the parallel loop. [body] receives the C names of the point
    coordinates, outermost dimension first. *)

val emit_bc_fn : C_writer.t -> Msc_ir.Stencil.t -> bc:Msc_exec.Bc.t -> unit
(** [static void msc_apply_bc(ELEM *g)] refreshing the halo per the boundary
    condition. Emits nothing for [Dirichlet 0.0] (the zero halo the
    allocation already provides). *)

val bc_is_trivial : Msc_exec.Bc.t -> bool

val step_params : Msc_ir.Stencil.t -> string
(** The C parameter list of [msc_step]: one input-state pointer per retained
    timestep, one pointer per coefficient grid, then the output pointer. *)

val emit_time_loop :
  ?bc:Msc_exec.Bc.t -> C_writer.t -> Msc_ir.Stencil.t -> steps_expr:string -> unit
(** The sliding-window main loop: window + coefficient-grid allocation,
    rotation, per-step call to [msc_step], and final report. Assumes
    [msc_step] and the init/report helpers were emitted. *)
