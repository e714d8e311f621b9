(** Matrix-free iterative solvers whose inner operator is an MSC stencil.

    The solvers run on the distributed runtime: the operator [A] (the
    unit-spacing negative Laplacian, {!Msc_frontend.Builder.laplacian_kernel})
    is applied by stepping a {!Msc_comm.Distributed} stencil over per-rank
    sub-grids with real halo exchanges, and every inner product / norm goes
    through the grid-reduction machinery ({!Msc_exec.Reduction} per rank,
    {!Msc_comm.Mpi_sim.allreduce} across ranks) — so each reduction's fold
    order is fixed by tile and rank index, never by scheduling.

    {b Bit-stability.} The temporal depth never changes the numbers: the
    stepped states are bit-identical at every depth (the distributed
    runtime's invariant), vector updates are sequential row-major per rank,
    and reductions fold in index order — so per-iteration residual
    sequences are bit-identical across depths and pool sizes.

    {b Depths.} Jacobi is a genuine stencil time iteration
    ([x + (omega/d)*:(b -: A x)]), so it runs at any depth — at depth
    [k > 1] the smoother advances in communication-avoiding blocks. CG and
    red-black Gauss–Seidel load a fresh operand into the state before
    every apply, so there is no time block to deepen: the {e operator} is
    clamped to depth 1, recorded in the report's [op_depth]. Each apply
    is one depth-1 step, one halo exchange. *)

type method_ = Jacobi | Red_black_gauss_seidel | Cg

val method_to_string : method_ -> string

val method_of_string : string -> method_ option
(** Accepts ["jacobi"], ["rbgs"], ["cg"]. *)

val all_methods : method_ list

(** {1 Problems} *)

module Problem : sig
  type t = {
    name : string;
    dims : int array;  (** interior extents of the global grid *)
    rhs : int array -> float;
        (** right-hand side [b] as a closed form over {e global} interior
            coordinates — every rank fills its slab without communication *)
  }

  val poisson : dims:int array -> t
  (** The Poisson model problem [A x = b] under homogeneous Dirichlet
      boundaries: [A] is the unit-spacing negative Laplacian (SPD, so CG
      applies) and [b = 1] everywhere — a smooth, deterministic load that
      excites every eigenmode. *)
end

(** {1 Reports} *)

type report = {
  method_ : method_;
  problem : string;
  depth : int;  (** requested temporal depth ([config.depth]) *)
  op_depth : int;
      (** the depth actually stepping the operator: CG and red-black clamp
          it to 1; Jacobi runs the requested depth, clamped only by the
          thinnest rank ({!Msc_comm.Distributed.effective_depth}) *)
  backend : Msc_exec.Backend.t;
  ranks : int;
  iterations : int;  (** update iterations performed *)
  converged : bool;
  residuals : float array;
      (** [residuals.(0)] is the initial residual ([||b||] at [x0 = 0]);
          entry [i >= 1] is the 2-norm residual after iteration [i]
          (Jacobi reports the exact previous-iterate residual
          [(d/omega) * ||dx||]) *)
  final_residual : float;
  rhs_norm : float;  (** [||b||], the relative-convergence scale *)
  allreduces : int;  (** scalar collectives performed, [rhs_norm] included *)
  messages : int;
      (** mailbox messages sent: halo exchanges (the initial fill
          included) and every allreduce hop *)
  tol : float;  (** relative: converged when [residual <= tol * rhs_norm] *)
}

val pp_report : Format.formatter -> report -> unit

(** {1 Solving} *)

val solve :
  ?config:Msc_exec.Exec.Config.t ->
  ?net:Msc_comm.Netmodel.t ->
  ?trace:Msc_trace.t ->
  ?tol:float ->
  ?max_iters:int ->
  ?omega:float ->
  ?ranks_shape:int array ->
  method_:method_ ->
  Problem.t ->
  report
(** Solve [A x = b] from [x0 = 0] to relative tolerance [tol] (default
    [1e-8]) or [max_iters] (default [2000]) update iterations. [omega]
    (default [1.0]) damps the Jacobi update only. [ranks_shape] (default:
    a single rank) decomposes the grid as in {!Msc_comm.Distributed.create};
    [config] carries the backend / depth / pool for the operator runs, and
    [net] prices every halo message and allreduce hop. [trace] records a
    ["solver.iter"] span and a ["solver.residual"] counter per iteration.

    Iteration costs: Jacobi — one distributed step and one allreduce per
    iteration; CG — one operator apply and two allreduces; red-black
    Gauss–Seidel — two operator applies (one per color) and one allreduce.
    @raise Invalid_argument on a bad decomposition, [tol <= 0] or
    [config.depth < 1]. *)
