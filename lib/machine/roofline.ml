type bound = Memory_bound | Compute_bound

type point = {
  label : string;
  intensity : float;
  achieved_gflops : float;
  attainable_gflops : float;
  bound : bound;
}

let ridge_point m dtype = Machine.peak_gflops m dtype /. m.Machine.mem_bandwidth_gbs

let attainable m dtype ~intensity =
  Float.min (Machine.peak_gflops m dtype) (m.Machine.mem_bandwidth_gbs *. intensity)

let classify m dtype ~intensity =
  if intensity < ridge_point m dtype then Memory_bound else Compute_bound

let bound_to_string = function
  | Memory_bound -> "memory-bound"
  | Compute_bound -> "compute-bound"
