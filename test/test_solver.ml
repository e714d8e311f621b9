(* Matrix-free solver tests: convergence on the Poisson model problem with
   pinned iteration counts, per-iteration residual telemetry, collective
   accounting, and the bit-stability contract — residual sequences must be
   bit-identical across temporal depths and pool sizes at a fixed
   decomposition. *)

open Helpers
module Solver = Msc_solver.Solver
module Exec = Msc_exec.Exec
module Trace = Msc_trace

(* Pinned on the 9x9 Poisson 2d5pt problem at rel tol 1e-6. A drift here
   means the update recurrences (or the reduction fold order feeding them)
   changed — treat as a regression, not a number to bump casually. *)
let tol = 1e-6
let dims = [| 9; 9 |]
let jacobi_iters = 274
let cg_iters = 13
let rbgs_iters = 141

let problem () = Solver.Problem.poisson ~dims

let method_round_trip () =
  List.iter
    (fun m ->
      match Solver.method_of_string (Solver.method_to_string m) with
      | Some m' -> check_bool "round trip" true (m = m')
      | None -> Alcotest.fail "method_of_string failed")
    Solver.all_methods;
  check_bool "unknown rejected" true (Solver.method_of_string "sor" = None)

let poisson_naming () =
  let p = problem () in
  check_string "2d name" "poisson_2d5pt" p.Solver.Problem.name;
  check_string "3d name" "poisson_3d7pt"
    (Solver.Problem.poisson ~dims:[| 4; 4; 4 |]).Solver.Problem.name;
  check_float "rhs is one" 1.0 (p.Solver.Problem.rhs [| 3; 4 |])

let check_converged ~iters (r : Solver.report) =
  check_bool "converged" true r.Solver.converged;
  check_int "iterations pinned" iters r.Solver.iterations;
  check_bool "within tolerance" true
    (r.Solver.final_residual <= tol *. r.Solver.rhs_norm);
  (* 81 unit loads: ||b|| = 9 exactly. *)
  check_bool "rhs norm" true (r.Solver.rhs_norm = 9.0);
  check_int "one residual per iteration"
    (r.Solver.iterations + 1)
    (Array.length r.Solver.residuals);
  check_bool "residuals.(0) is ||b||" true
    (r.Solver.residuals.(0) = r.Solver.rhs_norm);
  Array.iter
    (fun res -> check_bool "residual finite" true (Float.is_finite res))
    r.Solver.residuals

let jacobi_converges () =
  let r = Solver.solve ~tol ~method_:Solver.Jacobi (problem ()) in
  check_converged ~iters:jacobi_iters r;
  (* ||b|| plus one residual collective per step. *)
  check_int "allreduces" (jacobi_iters + 1) r.Solver.allreduces;
  check_int "never clamped" r.Solver.depth r.Solver.op_depth;
  (* The residual telemetry reaches the trace sink. *)
  let trace = Trace.create () in
  let r2 = Solver.solve ~trace ~tol ~method_:Solver.Jacobi (problem ()) in
  check_int "traced iterations" jacobi_iters r2.Solver.iterations;
  let events = Trace.events trace in
  let count name =
    List.length
      (List.filter
         (function
           | Trace.Span { name = n; _ } | Trace.Counter { name = n; _ } ->
               String.equal n name)
         events)
  in
  check_int "solver.residual counters" jacobi_iters (count "solver.residual");
  check_bool "solver.iter spans" true (count "solver.iter" >= jacobi_iters)

let cg_converges () =
  let r = Solver.solve ~tol ~method_:Solver.Cg (problem ()) in
  check_converged ~iters:cg_iters r;
  (* rr0 (= ||b||) plus two collectives (pAp, rr) per iteration. *)
  check_int "allreduces" (1 + (2 * cg_iters)) r.Solver.allreduces;
  check_bool "cg far faster than jacobi" true (cg_iters * 10 < jacobi_iters)

(* One CG iteration applies the operator once: one depth-1 step, whose
   exchange already carries the loaded operand, so the iteration sends
   one step's halo messages and its two allreduces — no separate halo
   refresh before the step. On 2x2 ranks the 5-point operator exchanges
   faces only: every rank has 2 neighbours, 8 messages a step; an
   allreduce over 4 ranks is a gather and a broadcast, 6 hops. *)
let cg_iteration_messages () =
  let run max_iters =
    Solver.solve ~ranks_shape:[| 2; 2 |] ~tol:1e-30 ~max_iters ~method_:Solver.Cg
      (problem ())
  in
  let r1 = run 1 and r2 = run 2 in
  check_bool "not converged" false r2.Solver.converged;
  check_int "two allreduces per iteration" 2 (r2.Solver.allreduces - r1.Solver.allreduces);
  check_int "one step's halo messages plus the allreduces" (8 + (2 * 6))
    (r2.Solver.messages - r1.Solver.messages)

let rbgs_converges () =
  let r =
    Solver.solve ~tol ~method_:Solver.Red_black_gauss_seidel (problem ())
  in
  check_converged ~iters:rbgs_iters r;
  (* ||b|| plus one residual check per loop entry (iterations + 1). *)
  check_int "allreduces" (rbgs_iters + 2) r.Solver.allreduces;
  check_bool "beats jacobi" true (rbgs_iters < jacobi_iters)

let damped_jacobi_still_converges () =
  let r =
    Solver.solve ~tol:1e-3 ~omega:0.8 ~method_:Solver.Jacobi (problem ())
  in
  check_bool "converged" true r.Solver.converged;
  check_bool "damping slows it down" true
    (r.Solver.iterations
    > (Solver.solve ~tol:1e-3 ~method_:Solver.Jacobi (problem ())).Solver.iterations)

let residuals_bit_identical_across_depths () =
  (* The headline solver contract: at a fixed decomposition, neither the
     temporal depth nor the pool that steps the ranks changes a single bit
     of any residual. *)
  let p = Solver.Problem.poisson ~dims:[| 10; 12 |] in
  let pool = Msc_util.Domain_pool.create 2 in
  Fun.protect ~finally:(fun () -> Msc_util.Domain_pool.shutdown pool) @@ fun () ->
  List.iter
    (fun method_ ->
      let run config = Solver.solve ~config ~ranks_shape:[| 2; 2 |] ~tol ~method_ p in
      let reference = run Exec.Config.default in
      check_bool
        (Solver.method_to_string method_ ^ " reference converged")
        true reference.Solver.converged;
      List.iter
        (fun (ename, config) ->
          let r = run config in
          check_int
            (Printf.sprintf "%s/%s iterations" (Solver.method_to_string method_)
               ename)
            reference.Solver.iterations r.Solver.iterations;
          check_bool
            (Printf.sprintf "%s/%s residuals bit-identical"
               (Solver.method_to_string method_) ename)
            true
            (r.Solver.residuals = reference.Solver.residuals))
        [
          ("depth2", Exec.Config.make ~depth:2 ());
          ("depth1 on 2 workers", Exec.Config.make ~pool ());
          ("depth2 on 2 workers", Exec.Config.make ~depth:2 ~pool ());
        ])
    Solver.all_methods

let temporal_degrade_recorded () =
  let p = problem () in
  let config = Exec.Config.make ~depth:2 () in
  (* CG loads a fresh operand before every apply: no block to deepen. *)
  let r = Solver.solve ~config ~tol ~method_:Solver.Cg p in
  check_int "request recorded" 2 r.Solver.depth;
  check_int "operator clamped to depth 1" 1 r.Solver.op_depth;
  (* Jacobi is a real time iteration: it runs at the requested depth. *)
  let r2 = Solver.solve ~config ~tol ~method_:Solver.Jacobi p in
  check_int "depth honored" 2 r2.Solver.op_depth;
  check_int "same jacobi iterations" jacobi_iters r2.Solver.iterations

let solve_validates () =
  let p = problem () in
  (match Solver.solve ~tol:0.0 ~method_:Solver.Cg p with
  | _ -> Alcotest.fail "tol 0 must raise"
  | exception Invalid_argument _ -> ());
  (match Solver.solve ~omega:1.5 ~method_:Solver.Jacobi p with
  | _ -> Alcotest.fail "omega > 1 must raise"
  | exception Invalid_argument _ -> ());
  (match Solver.solve ~max_iters:(-1) ~method_:Solver.Cg p with
  | _ -> Alcotest.fail "negative max_iters must raise"
  | exception Invalid_argument _ -> ());
  (* CG clamps its operator to depth 1, but a depth below 1 is still a
     bad request, named in the error. *)
  (match Solver.solve ~config:(Exec.Config.make ~depth:0 ()) ~method_:Solver.Cg p with
  | _ -> Alcotest.fail "depth 0 must raise"
  | exception Invalid_argument msg ->
      check_string "names the depth" "Solver.solve: temporal depth 0 must be >= 1" msg);
  (* An unreachable tolerance reports non-convergence honestly. *)
  let r = Solver.solve ~tol:1e-15 ~max_iters:3 ~method_:Solver.Jacobi p in
  check_bool "not converged" false r.Solver.converged;
  check_int "stopped at cap" 3 r.Solver.iterations

let pp_report_smoke () =
  let r = Solver.solve ~tol ~method_:Solver.Cg (problem ()) in
  let s = Format.asprintf "%a" Solver.pp_report r in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "names the method" true (has "cg");
  check_bool "names the problem" true (has "poisson_2d5pt");
  check_bool "states convergence" true (has "converged")

let suites =
  [
    ( "solver",
      [
        tc "method round trip" method_round_trip;
        tc "poisson naming" poisson_naming;
        tc "jacobi converges (pinned)" jacobi_converges;
        tc "cg converges (pinned)" cg_converges;
        tc "cg iteration: one exchange" cg_iteration_messages;
        tc "rbgs converges (pinned)" rbgs_converges;
        tc "damped jacobi" damped_jacobi_still_converges;
        slow "residuals bit-identical across engines"
          residuals_bit_identical_across_depths;
        tc "temporal degrade recorded" temporal_degrade_recorded;
        tc "solve validates" solve_validates;
        tc "pp_report smoke" pp_report_smoke;
      ] );
  ]
