(** Stencil IR: a computation with multiple time dependencies (paper §4.1).

    Where a {!Kernel} is one spatial sweep, a stencil combines kernel
    applications at several *previous* timesteps, e.g. the paper's

    {[ Stencil st((i,j), Res[t] << S_3d7pt[t-1] + S_3d7pt[t-2]) ]}

    is [Sum (Apply (s_3d7pt, 1), Apply (s_3d7pt, 2))]. The [State] form gives
    direct (identity) access to a past state, which second-order wave
    equations need ([u[t] = 2 u[t-1] - u[t-2] + c^2 lap(u[t-1])]). *)

type expr =
  | Apply of Kernel.t * int  (** kernel applied to the state at [t - k], k >= 1 *)
  | State of int  (** the raw state at [t - k], k >= 1 *)
  | Scale of float * expr
  | Sum of expr * expr
  | Diff of expr * expr

type t = {
  name : string;
  grid : Tensor.t;  (** the evolving SpNode *)
  expr : expr;
}

val make : name:string -> grid:Tensor.t -> expr -> t
(** @raise Invalid_argument if any time offset is < 1, if a kernel's input
    tensor differs from [grid], or if the grid's declared time window is
    smaller than the maximum dependency depth. *)

val of_kernel : Kernel.t -> t
(** The common single-dependency case: [grid[t] = K(grid[t-1])]. *)

val time_window : t -> int
(** Maximum [k] over all dependencies: the number of past states that must be
    kept live (the paper's sliding-time-window width minus one). *)

type term = { scale : float; kernel : Kernel.t option; dt : int }
(** One additive term of the flattened combination: [scale] times the
    kernel applied to the state at [t - dt], or times that raw state when
    [kernel = None]. *)

val terms : t -> term list
(** The expression flattened into scaled terms, in evaluation order:
    [Scale] multiplies into [scale] and [Diff] negates its right side. *)

val map_kernels : (Kernel.t -> Kernel.t) -> expr -> expr
(** The same combination with every applied kernel replaced by [f k]. *)

val reshape : ?shape:int array -> ?halo:int array -> t -> t
(** The same stencil over rebuilt tensors: the grid and every kernel's aux
    tensors get [shape] and [halo], each tensor keeping its own where one
    is absent, and every kernel is rebuilt (and revalidated) over the new
    grid. *)

val kernels : t -> Kernel.t list
(** Distinct kernels, in first-use order. *)

val flops_per_point : t -> int
(** Total arithmetic per output point: kernel flops plus combination
    arithmetic (Table 4 "Ops" column). *)

val read_bytes_per_point : t -> int
(** Distinct (state, point) reads × element size (Table 4 "Read"). *)

val write_bytes_per_point : t -> int
val radius : t -> int array
val validate_halo : t -> unit
(** @raise Invalid_argument if the stencil radius exceeds the grid halo. *)

val pp : Format.formatter -> t -> unit
