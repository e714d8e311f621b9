(** Roofline model (Figure 9): attainable performance as a function of
    operational intensity. *)

type bound = Memory_bound | Compute_bound

type point = {
  label : string;
  intensity : float;  (** flops per main-memory byte *)
  achieved_gflops : float;
  attainable_gflops : float;
  bound : bound;
}

val ridge_point : Machine.t -> Msc_ir.Dtype.t -> float
(** Intensity at which the bandwidth roof meets the compute roof. *)

val attainable : Machine.t -> Msc_ir.Dtype.t -> intensity:float -> float
(** [min(peak, bandwidth * intensity)] in GFlop/s. *)

val classify : Machine.t -> Msc_ir.Dtype.t -> intensity:float -> bound

val bound_to_string : bound -> string
