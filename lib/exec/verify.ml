type report = {
  stencil_name : string;
  steps : int;
  ran : Backend.t;
  max_rel_error : float;
  tolerance : float;
  ok : bool;
}

(* The oracle is the runtime at its defaults: the tree interpreter over
   one untiled task on the calling domain. *)
let check ?schedule ?config ?init ?aux_init ?bc ?trace ~steps (st : Msc_ir.Stencil.t) =
  let fast = Runtime.create ?schedule ?config ?init ?aux_init ?bc ?trace st in
  let naive = Runtime.create ?init ?aux_init ?bc st in
  Runtime.run fast steps;
  Runtime.run naive steps;
  let err =
    Grid.max_rel_error ~reference:(Runtime.current naive) (Runtime.current fast)
  in
  let tolerance = Msc_ir.Dtype.tolerance st.Msc_ir.Stencil.grid.Msc_ir.Tensor.dtype in
  {
    stencil_name = st.Msc_ir.Stencil.name;
    steps;
    ran = (Runtime.backend_report fast).Runtime.effective;
    max_rel_error = err;
    tolerance;
    ok = err <= tolerance;
  }

let check_grids ~dtype ~reference g =
  Grid.max_rel_error ~reference g <= Msc_ir.Dtype.tolerance dtype

let pp_report ppf r =
  Format.fprintf ppf "%s: %d steps on %a, max rel err %.3g (tol %.1g) -> %s"
    r.stencil_name r.steps Backend.pp r.ran r.max_rel_error r.tolerance
    (if r.ok then "OK" else "FAIL")
