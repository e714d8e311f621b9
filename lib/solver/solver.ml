(* Matrix-free iterative solvers over the distributed stencil runtime.

   Determinism contract (mirrors Reduction / Distributed.reduce): every
   vector update is a sequential row-major interior loop per rank, every
   inner product folds per-rank tile partials in tree order and rank
   partials through Mpi_sim.allreduce's rank-indexed tree — so residual
   sequences are bit-identical across temporal depths and pool sizes. *)

open Msc_ir
module Builder = Msc_frontend.Builder
module Grid = Msc_exec.Grid
module Runtime = Msc_exec.Runtime
module Exec = Msc_exec.Exec
module Bc = Msc_exec.Bc
module Reduction = Msc_exec.Reduction
module Distributed = Msc_comm.Distributed
module Mpi_sim = Msc_comm.Mpi_sim
module Decomp = Msc_comm.Decomp

type method_ = Jacobi | Red_black_gauss_seidel | Cg

let method_to_string = function
  | Jacobi -> "jacobi"
  | Red_black_gauss_seidel -> "rbgs"
  | Cg -> "cg"

let method_of_string = function
  | "jacobi" -> Some Jacobi
  | "rbgs" -> Some Red_black_gauss_seidel
  | "cg" -> Some Cg
  | _ -> None

let all_methods = [ Jacobi; Red_black_gauss_seidel; Cg ]

module Problem = struct
  type t = { name : string; dims : int array; rhs : int array -> float }

  let poisson ~dims =
    let nd = Array.length dims in
    {
      name = Printf.sprintf "poisson_%dd%dpt" nd ((2 * nd) + 1);
      dims = Array.copy dims;
      rhs = (fun _ -> 1.0);
    }
end

type report = {
  method_ : method_;
  problem : string;
  depth : int;
  op_depth : int;
  backend : Msc_exec.Backend.t;
  ranks : int;
  iterations : int;
  converged : bool;
  residuals : float array;
  final_residual : float;
  rhs_norm : float;
  allreduces : int;
  messages : int;
  tol : float;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%s on %s: %s after %d iterations@ residual %.3e (rhs norm %.3e, \
     rel tol %.1e)@ depth %d (operator %d), backend %s, %d ranks, %d \
     allreduces, %d messages@]"
    (method_to_string r.method_)
    r.problem
    (if r.converged then "converged" else "NOT converged")
    r.iterations r.final_residual r.rhs_norm r.tol r.depth r.op_depth
    (Msc_exec.Backend.to_string r.backend)
    r.ranks r.allreduces r.messages

(* ------------------------------------------------------------------ *)
(* Sequential per-rank vector kernels. All operand grids of one rank
   share their geometry (Grid.like of the rank state), so flat indices
   coincide and one row walk serves every operand. *)

let iter_rows (g : Grid.t) f =
  let nd = Array.length g.Grid.shape in
  let last = nd - 1 in
  let len = g.Grid.shape.(last) in
  if len > 0 && Array.for_all (fun n -> n > 0) g.Grid.shape then begin
    let halo = g.Grid.halo and strides = g.Grid.strides in
    let coord = Array.make nd 0 in
    let rec go d =
      if d = last then begin
        let base = ref 0 in
        for e = 0 to nd - 1 do
          let c = if e = last then 0 else coord.(e) in
          base := !base + ((c + halo.(e)) * strides.(e))
        done;
        f !base len strides.(last)
      end
      else
        for c = 0 to g.Grid.shape.(d) - 1 do
          coord.(d) <- c;
          go (d + 1)
        done
    in
    go 0
  end

(* y += alpha * x *)
let axpy alpha (x : Grid.t) (y : Grid.t) =
  let xd = x.Grid.data and yd = y.Grid.data in
  iter_rows x (fun base len stride ->
      for c = 0 to len - 1 do
        let i = base + (c * stride) in
        Array.unsafe_set yd i
          (Array.unsafe_get yd i +. (alpha *. Array.unsafe_get xd i))
      done)

(* p <- r + beta * p *)
let xpay (r : Grid.t) beta (p : Grid.t) =
  let rd = r.Grid.data and pd = p.Grid.data in
  iter_rows r (fun base len stride ->
      for c = 0 to len - 1 do
        let i = base + (c * stride) in
        Array.unsafe_set pd i
          (Array.unsafe_get rd i +. (beta *. Array.unsafe_get pd i))
      done)

(* out <- a - b *)
let sub_into (a : Grid.t) (b : Grid.t) (out : Grid.t) =
  let ad = a.Grid.data and bd = b.Grid.data and od = out.Grid.data in
  iter_rows a (fun base len stride ->
      for c = 0 to len - 1 do
        let i = base + (c * stride) in
        Array.unsafe_set od i
          (Array.unsafe_get ad i -. Array.unsafe_get bd i)
      done)

(* x += scale * mask * v  (mask is 0/1: untouched points add exactly 0) *)
let masked_update (x : Grid.t) ~scale ~(mask : Grid.t) (v : Grid.t) =
  let xd = x.Grid.data and md = mask.Grid.data and vd = v.Grid.data in
  iter_rows x (fun base len stride ->
      for c = 0 to len - 1 do
        let i = base + (c * stride) in
        Array.unsafe_set xd i
          (Array.unsafe_get xd i
          +. (scale *. Array.unsafe_get md i *. Array.unsafe_get vd i))
      done)

(* ------------------------------------------------------------------ *)

let solver_tag = 0x501e

let solve ?(config = Exec.Config.default) ?net ?(trace = Msc_trace.disabled)
    ?(tol = 1e-8) ?(max_iters = 2000) ?(omega = 1.0) ?ranks_shape ~method_
    (p : Problem.t) =
  if tol <= 0.0 then invalid_arg "Solver.solve: tol must be > 0";
  if max_iters < 0 then invalid_arg "Solver.solve: max_iters must be >= 0";
  if omega <= 0.0 || omega > 1.0 then
    invalid_arg "Solver.solve: omega must be in (0, 1]";
  if config.Exec.Config.depth < 1 then
    invalid_arg
      (Printf.sprintf "Solver.solve: temporal depth %d must be >= 1"
         config.Exec.Config.depth);
  let nd = Array.length p.Problem.dims in
  let ranks_shape =
    match ranks_shape with Some rs -> rs | None -> Array.make nd 1
  in
  let u =
    Tensor.sp ~time_window:1 ~halo:(Array.make nd 1) "u" Dtype.F64
      p.Problem.dims
  in
  let diag = Builder.laplacian_diagonal u in
  let a = Builder.laplacian_kernel u in
  let allreduces = ref 0 in
  let residuals = ref [] in
  let push r = residuals := r :: !residuals in
  let finish d ~iterations ~converged ~bnorm =
    let residuals = Array.of_list (List.rev !residuals) in
    {
      method_;
      problem = p.Problem.name;
      depth = config.Exec.Config.depth;
      op_depth = Distributed.effective_depth d;
      backend = config.Exec.Config.backend;
      ranks = Distributed.nranks d;
      iterations;
      converged;
      residuals;
      final_residual = residuals.(Array.length residuals - 1);
      rhs_norm = bnorm;
      allreduces = !allreduces;
      messages = Mpi_sim.messages_sent (Distributed.mpi d);
      tol;
    }
  in
  (* Per-rank reduction executors share the rank-state geometry; their
     single whole-interior task keeps each rank's partial sequential. *)
  let red_config =
    { config with Exec.Config.pool = Msc_util.Domain_pool.sequential }
  in
  let make_reducers d =
    Array.init (Distributed.nranks d) (fun rank ->
        Reduction.create ~config:red_config (Distributed.rank_state d ~rank))
  in
  let global_sum mpi partials =
    incr allreduces;
    Mpi_sim.allreduce mpi ~tag:solver_tag
      ~op:Reduce.Sum
      partials
  in
  match method_ with
  | Jacobi ->
      (* A genuine stencil time iteration — every temporal depth runs it
         natively (at depth k, an s-step smoother). *)
      let rhs_t = Builder.coefficient_grid ~grid:u "rhs" in
      let b_k = Builder.aux_point_kernel ~name:"load_rhs" ~aux:rhs_t u in
      let w = omega /. diag in
      let expr = Builder.(state 1 +: (w *: ((b_k @> 1) -: (a @> 1)))) in
      let st = Builder.stencil ~name:("jacobi_" ^ p.Problem.name) ~grid:u expr in
      let aux_init name coord =
        if String.equal name "rhs" then p.Problem.rhs coord
        else Runtime.default_aux_init name coord
      in
      let d =
        Distributed.create ~config ?net ~init:(fun _ -> 0.0) ~aux_init
          ~bc:(Bc.Dirichlet 0.0) ~trace ~ranks_shape st
      in
      let n = Distributed.nranks d in
      let mpi = Distributed.mpi d in
      let reducers = make_reducers d in
      let dxs =
        Array.init n (fun rank -> Grid.like (Distributed.rank_state d ~rank))
      in
      let bnorm =
        let partials =
          Array.init n (fun rank ->
              let rt = Distributed.rank_runtime d ~rank in
              let bg = List.assoc "rhs" (Runtime.aux_grids rt) in
              Reduction.run_raw reducers.(rank) ~op:Reduce.Norm2 bg)
        in
        sqrt (global_sum mpi partials)
      in
      push bnorm;
      if bnorm = 0.0 then finish d ~iterations:0 ~converged:true ~bnorm
      else begin
        let rec loop iter =
          if iter >= max_iters then (iter, false)
          else begin
            let res =
              Msc_trace.span trace "solver.iter" (fun () ->
                  Distributed.step d;
                  (* x_new - x_old = (omega/d) * (b - A x_old): the exact
                     previous-iterate residual is (d/omega) * ||dx||, no
                     second operator apply needed. *)
                  let partials =
                    Array.init n (fun rank ->
                        let rt = Distributed.rank_runtime d ~rank in
                        sub_into (Runtime.current rt) (Runtime.output_slot rt)
                          dxs.(rank);
                        Reduction.run_raw reducers.(rank) ~op:Reduce.Norm2
                          dxs.(rank))
                  in
                  sqrt (global_sum mpi partials) *. diag /. omega)
            in
            Msc_trace.add trace "solver.residual" res;
            push res;
            if res <= tol *. bnorm then (iter + 1, true) else loop (iter + 1)
          end
        in
        let iterations, converged = loop 0 in
        finish d ~iterations ~converged ~bnorm
      end
  | Cg | Red_black_gauss_seidel ->
      (* Operator-apply harness: a fresh operand is loaded into the state
         before every apply, so there is no time block to deepen — the
         operator is clamped to depth 1 (recorded via [effective_depth] /
         the report's [op_depth]). *)
      let op_config = { config with Exec.Config.depth = 1 } in
      let st =
        Builder.stencil ~name:("apply_" ^ p.Problem.name) ~grid:u
          Builder.(a @> 1)
      in
      let d =
        Distributed.create ~config:op_config ?net ~init:(fun _ -> 0.0)
          ~bc:(Bc.Dirichlet 0.0) ~trace ~ranks_shape st
      in
      let n = Distributed.nranks d in
      let mpi = Distributed.mpi d in
      let decomp = Distributed.decomp d in
      let reducers = make_reducers d in
      let like rank = Grid.like (Distributed.rank_state d ~rank) in
      let global_at rank coord =
        let offset, _ = Decomp.subdomain decomp ~rank in
        Array.mapi (fun dd c -> c + offset.(dd)) coord
      in
      let bs =
        Array.init n (fun rank ->
            let g = like rank in
            Grid.fill g (fun coord -> p.Problem.rhs (global_at rank coord));
            g)
      in
      (* The depth-1 step exchanges the loaded [dt = 1] state and refreshes
         its physical faces before the shell sweep reads them, so loading
         the interior is all an apply needs: one exchange per apply. *)
      let apply xs outs =
        Array.iteri
          (fun rank x ->
            let rt = Distributed.rank_runtime d ~rank in
            Grid.blit_interior ~src:x ~dst:(Runtime.state rt ~dt:1))
          xs;
        Distributed.step d;
        Array.iteri
          (fun rank out ->
            let rt = Distributed.rank_runtime d ~rank in
            Grid.blit_interior ~src:(Runtime.current rt) ~dst:out)
          outs
      in
      let global_dot xs ys =
        global_sum mpi
          (Array.init n (fun r ->
               Reduction.run_raw reducers.(r) ~op:Reduce.Dot ~with_:ys.(r)
                 xs.(r)))
      in
      let xs = Array.init n like in
      (match method_ with
      | Jacobi -> assert false
      | Cg ->
          let rs = Array.map Grid.copy bs in
          let ps = Array.map Grid.copy bs in
          let aps = Array.init n like in
          let rr0 = global_dot rs rs in
          let bnorm = sqrt rr0 in
          push bnorm;
          if bnorm = 0.0 then finish d ~iterations:0 ~converged:true ~bnorm
          else begin
            let rec loop iter rr =
              if sqrt rr <= tol *. bnorm then (iter, true)
              else if iter >= max_iters then (iter, false)
              else begin
                let rr' =
                  Msc_trace.span trace "solver.iter" (fun () ->
                      apply ps aps;
                      let pap = global_dot ps aps in
                      let alpha = rr /. pap in
                      Array.iteri
                        (fun r pr ->
                          axpy alpha pr xs.(r);
                          axpy (-.alpha) aps.(r) rs.(r))
                        ps;
                      global_dot rs rs)
                in
                let res = sqrt rr' in
                Msc_trace.add trace "solver.residual" res;
                push res;
                let beta = rr' /. rr in
                Array.iteri (fun r pr -> xpay rs.(r) beta pr) ps;
                loop (iter + 1) rr'
              end
            in
            let iterations, converged = loop 0 rr0 in
            finish d ~iterations ~converged ~bnorm
          end
      | Red_black_gauss_seidel ->
          let axs = Array.init n like in
          let scratch = Array.init n like in
          let parity target rank =
            let g = like rank in
            Grid.fill g (fun coord ->
                let s = Array.fold_left ( + ) 0 (global_at rank coord) in
                if s mod 2 = target then 1.0 else 0.0);
            g
          in
          let reds = Array.init n (parity 0) in
          let blacks = Array.init n (parity 1) in
          let bnorm = sqrt (global_dot bs bs) in
          push bnorm;
          if bnorm = 0.0 then finish d ~iterations:0 ~converged:true ~bnorm
          else begin
            let inv_d = 1.0 /. diag in
            let residual_now () =
              apply xs axs;
              Array.iteri (fun r s -> sub_into bs.(r) axs.(r) s) scratch;
              sqrt (global_dot scratch scratch)
            in
            (* The apply feeding the residual also feeds the red half-sweep,
               so one iteration costs two applies and one extra allreduce. *)
            let rec loop iter =
              let res = residual_now () in
              if iter > 0 then begin
                Msc_trace.add trace "solver.residual" res;
                push res
              end;
              if res <= tol *. bnorm then (iter, true)
              else if iter >= max_iters then (iter, false)
              else begin
                Msc_trace.span trace "solver.iter" (fun () ->
                    (* Red half: scratch already holds b - A x. *)
                    Array.iteri
                      (fun r x ->
                        masked_update x ~scale:inv_d ~mask:reds.(r)
                          scratch.(r))
                      xs;
                    (* Black half reads the freshly updated red points. *)
                    apply xs axs;
                    Array.iteri (fun r s -> sub_into bs.(r) axs.(r) s) scratch;
                    Array.iteri
                      (fun r x ->
                        masked_update x ~scale:inv_d ~mask:blacks.(r)
                          scratch.(r))
                      xs);
                loop (iter + 1)
              end
            in
            let iterations, converged = loop 0 in
            finish d ~iterations ~converged ~bnorm
          end)
