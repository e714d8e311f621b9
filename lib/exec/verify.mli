(** §5.1 correctness methodology: run the optimized (scheduled, parallel,
    compiled) runtime and the naive serial one side by side and compare
    relative errors against the per-precision thresholds. "Naive serial"
    is {!Runtime.create} under {!Exec.Config.default}: the tree
    interpreter ({!Interp}, [Expr.eval]'s arithmetic in its order), the
    untiled [Schedule.empty] plan and the sequential pool. *)

type report = {
  stencil_name : string;
  steps : int;
  ran : Backend.t;  (** the backend the optimized runtime ran on *)
  max_rel_error : float;
  tolerance : float;
  ok : bool;
}

val check :
  ?schedule:Msc_schedule.Schedule.t ->
  ?config:Exec.Config.t ->
  ?init:(int -> int array -> float) ->
  ?aux_init:(string -> int array -> float) ->
  ?bc:Bc.t ->
  ?trace:Msc_trace.t ->
  steps:int -> Msc_ir.Stencil.t -> report
(** Runs both executors [steps] timesteps from the same initial condition and
    compares final states. The tolerance comes from the grid's declared
    datatype ({!Msc_ir.Dtype.tolerance}). [schedule] and [config] drive the
    optimized runtime only (backend and pool; the depth field is ignored —
    single node); [init], [aux_init] and [bc] apply to both. [trace]
    instruments the optimized runtime only (the oracle stays untimed). *)

val check_grids : dtype:Msc_ir.Dtype.t -> reference:Grid.t -> Grid.t -> bool
val pp_report : Format.formatter -> report -> unit
