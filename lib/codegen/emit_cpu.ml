open Msc_ir
module Plan = Msc_schedule.Plan
module Exec = Msc_exec.Exec
module Backend = Msc_exec.Backend
module Jit = Msc_exec.Jit

(* The fused whole-sweep body the Compiled_c backend JITs, reused verbatim
   for standalone programs: the stencil's [Backend.sweep_terms], the list
   the fused emitter consumes, plus the aux slot layout its [aux] argument
   expects. [None] when the stencil has no kernel term, isn't
   double-precision, or the emitter rejects a form — the caller falls back
   to the per-point assignment path. *)
let fused_sweep_of (st : Stencil.t) =
  if not (String.equal (Emit_common.elem_type st) "double") then None
  else
    let terms = Stencil.terms st in
    if not (List.exists (fun t -> t.Stencil.kernel <> None) terms) then None
    else
      let sweep_terms = Backend.sweep_terms ~halo:st.Stencil.grid.Tensor.halo st in
      match Jit.emit_c_sweep ~fn_name:"msc_sweep" sweep_terms with
      | Error _ -> None
      | Ok src -> Some (terms, src, Backend.sweep_aux_slots sweep_terms)

let fused_sweep_source st = Option.map (fun (_, src, _) -> src) (fused_sweep_of st)

(* msc_step as the fused runtime executes it: one call per plan tile task
   into the shared write-through sweep function, the task loop carrying the
   parallel pragma. Task (lo, hi) boxes are baked from the same
   [plan.tasks] array the native runtime dispatches on the pool. *)
let emit_fused_step w (st : Stencil.t) ~(plan : Plan.t) ~omp ~terms ~aux_slots =
  let nd = Array.length st.Stencil.grid.Tensor.shape in
  let tasks = plan.Plan.tasks in
  let nt = Array.length tasks in
  let row a =
    Printf.sprintf "{ %s }"
      (String.concat ", " (Array.to_list (Array.map string_of_int a)))
  in
  C_writer.line w "static const long msc_task_lo[%d][%d] = {" nt nd;
  Array.iter (fun (lo, _) -> C_writer.line w "  %s," (row lo)) tasks;
  C_writer.line w "};";
  C_writer.line w "static const long msc_task_hi[%d][%d] = {" nt nd;
  Array.iter (fun (_, hi) -> C_writer.line w "  %s," (row hi)) tasks;
  C_writer.line w "};";
  C_writer.blank w;
  C_writer.block w
    (Printf.sprintf "static void msc_step(%s)" (Emit_common.step_params st))
    (fun () ->
      let srcs =
        List.map (fun t -> Emit_common.state_var t.Stencil.dt) terms
      in
      C_writer.line w "const double *msc_srcs[%d] = { %s };" (List.length srcs)
        (String.concat ", " srcs);
      (match aux_slots with
      | [] -> ()
      | slots ->
          C_writer.line w "const double *msc_aux[%d] = { %s };"
            (List.length slots)
            (String.concat ", " slots));
      if omp then begin
        let units =
          match plan.Plan.parallel with
          | Plan.Seq -> 1
          | Plan.Block n | Plan.Round_robin n -> n
        in
        if units > 1 then
          C_writer.raw w
            (Printf.sprintf
               "#pragma omp parallel for num_threads(%d) schedule(static)" units)
      end;
      C_writer.block w (Printf.sprintf "for (int t = 0; t < %d; ++t)" nt)
        (fun () ->
          C_writer.line w "msc_sweep(msc_srcs, out, %s, msc_task_lo[t], msc_task_hi[t]);"
            (if aux_slots = [] then "NULL" else "msc_aux")))

let generate ?(steps = 10) ?(bc = Msc_exec.Bc.Dirichlet 0.0)
    ?(config = Exec.Config.default) ~omp (plan : Plan.t) =
  let st : Stencil.t = plan.Plan.stencil in
  let fused =
    match config.Exec.Config.backend with
    | Backend.Interp -> None
    | Backend.Compiled_c -> fused_sweep_of st
  in
  let w = C_writer.create () in
  Emit_common.emit_prelude w st;
  if omp then begin
    C_writer.line w "#ifdef _OPENMP";
    C_writer.line w "#include <omp.h>";
    C_writer.line w "#endif";
    C_writer.blank w
  end;
  Emit_common.emit_init_fn w st;
  C_writer.blank w;
  Emit_common.emit_aux_init_fns w st;
  Emit_common.emit_bc_fn w st ~bc;
  Emit_common.emit_checksum_fn w st;
  C_writer.blank w;
  (match fused with
  | Some (terms, sweep_src, aux_slots) ->
      C_writer.raw w sweep_src;
      C_writer.blank w;
      emit_fused_step w st ~plan ~omp ~terms ~aux_slots
  | None ->
      C_writer.block w
        (Printf.sprintf "static void msc_step(%s)" (Emit_common.step_params st))
        (fun () ->
          let pragma ~units =
            if omp then
              Some
                (Printf.sprintf
                   "#pragma omp parallel for num_threads(%d) schedule(static)"
                   units)
            else None
          in
          Emit_common.emit_scheduled_loops w st ~plan ~pragma ~body:(fun ~vars ->
              C_writer.line w "%s" (Emit_common.point_assignment st ~vars))));
  C_writer.blank w;
  Emit_common.emit_time_loop ~bc w st ~steps_expr:(string_of_int steps);
  C_writer.contents w
