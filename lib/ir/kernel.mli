(** Kernel IR: one basic stencil sweep (paper §4.1, e.g. a 3-D Laplacian).

    A kernel reads one input grid and produces the value of each output point
    from a neighbourhood of the corresponding input point. Kernels carry no
    temporal information; time dependencies live in {!Stencil}. *)

type t = {
  name : string;
  input : Tensor.t;  (** the SpNode the kernel reads *)
  aux : Tensor.t list;
      (** additional read-only grids — typically coefficient grids, the
          multi-grid case the paper's §5.6 discussion motivates with WRF and
          POP2 kernels. They must share the input's shape and halo so one
          index space covers all grids. *)
  index_vars : string list;  (** loop variables, outermost first, e.g. k,j,i *)
  expr : Expr.t;  (** RHS producing the output point *)
  bindings : (string * float) list;  (** coefficient values for [Expr.Param]s *)
}

val make :
  ?bindings:(string * float) list ->
  ?aux:Tensor.t list ->
  name:string -> input:Tensor.t -> index_vars:string list -> Expr.t -> t
(** Builds and validates a kernel.
    @raise Invalid_argument if [index_vars] rank differs from the input
    tensor's, if the expression reads a tensor that is neither [input] nor in
    [aux], if an aux tensor's shape/halo differ from the input's, if an
    access rank mismatches, if an offset exceeds the declared halo, or if a
    parameter is unbound. *)

val aux_tensor : t -> string -> Tensor.t option
(** Look up an aux grid by name. *)

val is_multi_grid : t -> bool
(** Does the expression actually read any aux tensor? *)

val ndim : t -> int
val radius : t -> int array
(** Per-dimension maximum absolute access offset. *)

val points : t -> int
(** Number of distinct points read per output point across all grids (the
    "Npt" of names like 3d7pt for single-grid kernels). *)

val flops_per_point : t -> int
val read_bytes_per_point : t -> int
(** [points * sizeof dtype]: the Read column of Table 4. *)

val write_bytes_per_point : t -> int
val aux_reads : t -> string list
(** The distinct non-input tensors the expression reads, in first-use
    (evaluation) order. *)

val taps : t -> Expr.tap list option
(** Linear-combination form, if the kernel is linear over the input grid
    alone (constant coefficients folded through bindings, taps with equal
    offsets merged). Multi-grid kernels return [None]. An analysis for the
    baseline models only: merging and folding re-associate the sum, so
    taps are not the kernel's value, and no executor runs them. *)

val rename : t -> string -> t
val pp : Format.formatter -> t -> unit
