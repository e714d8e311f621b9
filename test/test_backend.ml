(* Tests for the compiled-kernel execution backend: bit-identity of
   Compiled_c's fused sweeps against the interpreter over the whole
   benchmark suite (single node and distributed at depths 1 and 2), direct
   qcheck parity of the JIT's and the interpreter's sweep functions on
   identical arguments, the on-disk/memo kernel cache, and the interpreter fallback
   when no toolchain can be found on PATH. *)

open Helpers
module Grid = Msc_exec.Grid
module Runtime = Msc_exec.Runtime
module Interp = Msc_exec.Interp
module Backend = Msc_exec.Backend
module Jit = Msc_exec.Jit
module Exec = Msc_exec.Exec
module Bc = Msc_exec.Bc
module Distributed = Msc_comm.Distributed
module Suite = Msc_benchsuite.Suite
module Builder = Msc_frontend.Builder
module Schedule = Msc_schedule.Schedule
module Codegen = Msc_codegen.Codegen

let small_dims (b : Suite.bench) =
  match b.Suite.ndim with 2 -> [| 14; 18 |] | _ -> [| 10; 12; 11 |]

(* Every test in this module works against a private kernel-cache dir so
   the suite never races another process over /tmp artifacts. [Jit] re-reads
   the env var on each compile, so tests that need a cold cache swap it
   locally and restore this one. *)
let cache_dir =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msc-test-kernels-%d" (Unix.getpid ()))
  in
  Unix.putenv "MSC_KERNEL_CACHE" dir;
  dir

let with_cache_dir dir f =
  Unix.putenv "MSC_KERNEL_CACHE" dir;
  Jit.clear_memo ();
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "MSC_KERNEL_CACHE" cache_dir;
      Jit.clear_memo ())
    f

let contains s needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length s && (String.equal (String.sub s i n) needle || scan (i + 1))
  in
  scan 0

let have_tool t = Sys.command (Printf.sprintf "command -v %s > /dev/null 2>&1" t) = 0

let toolchain_for = function
  | Backend.Interp -> true
  | Backend.Compiled_c -> have_tool "cc" || have_tool "gcc"

let compiled_backends = [ Backend.Compiled_c ]

let final ?bc ?pool ?schedule ~backend ~steps st =
  let rt =
    Runtime.create ~config:(Exec.Config.make ~backend ?pool ()) ?bc ?schedule st
  in
  Runtime.run rt steps;
  (Runtime.current rt, Runtime.backend_report rt)

(* --- Single-node bit-identity over the whole suite ---

   Per benchmark: the interpreter and the fused whole-sweep kernel must
   agree bit-for-bit. *)

let suite_parity_bit_identical () =
  List.iter
    (fun (b : Suite.bench) ->
      let st = Suite.stencil ~dims:(small_dims b) b in
      let interp, _ = final ~backend:Backend.Interp ~steps:3 st in
      List.iter
        (fun backend ->
          let name =
            Printf.sprintf "%s/%s" b.Suite.name (Backend.to_string backend)
          in
          let got_fused, report = final ~backend ~steps:3 st in
          if toolchain_for backend then begin
            check_bool (name ^ ": requested backend ran") true
              (Backend.equal report.Runtime.effective backend);
            check_int
              (name ^ ": every kernel term compiled")
              report.Runtime.kernel_terms report.Runtime.compiled_terms;
            check_int (name ^ ": sweep is fused") 1 report.Runtime.fused_sweeps;
            check_bool
              (name ^ ": tile dispatches counted")
              true
              (report.Runtime.tile_dispatches > 0)
          end;
          check_bool (name ^ ": fused bit-identical to interp") true
            (got_fused.Grid.data = interp.Grid.data))
        compiled_backends)
    Suite.all

(* Periodic and Reflect drive different range/writeback paths through the
   same compiled kernels. *)
let parity_under_bcs () =
  let _, st = stencil_2d9pt_box ~m:12 ~n:15 () in
  List.iter
    (fun bc ->
      let interp, _ = final ~bc ~backend:Backend.Interp ~steps:3 st in
      List.iter
        (fun backend ->
          let got, _ = final ~bc ~backend ~steps:3 st in
          check_bool
            (Format.asprintf "%a/%s bit-identical" Bc.pp bc
               (Backend.to_string backend))
            true
            (got.Grid.data = interp.Grid.data))
        compiled_backends)
    [ Bc.Dirichlet 0.3; Bc.Periodic; Bc.Reflect ]

(* A stencil with no kernel term has nothing to JIT: under Compiled_c it
   runs the interpreter's sweep, reports no fallback, and matches the
   Expr.eval reference bit for bit. *)
let state_only_stencil_compiled () =
  let grid = Builder.def_tensor_2d ~time_window:2 ~halo:1 "U" Msc_ir.Dtype.F64 9 13 in
  let st = Builder.(stencil ~name:"state_only" ~grid ((0.5 *: state 1) +: state 2)) in
  let config = Exec.Config.make ~backend:Backend.Compiled_c () in
  let rt = Runtime.create ~config ~init:bumpy_init ~bc:Bc.Periodic st in
  let reference = Oracles.Reference.create ~init:bumpy_init ~bc:Bc.Periodic st in
  Runtime.run rt 5;
  Oracles.Reference.run reference 5;
  let report = Runtime.backend_report rt in
  check_int "no fused sweep" 0 report.Runtime.fused_sweeps;
  check_bool "no fallback reason" true (report.Runtime.fallback = None);
  check_bool "bit-identical to the reference" true
    ((Runtime.current rt).Grid.data = (Oracles.Reference.current reference).Grid.data)

(* --- Distributed depths x backends --- *)

let distributed_matrix_exact () =
  List.iter
    (fun (b : Suite.bench) ->
      let dims =
        Array.make b.Suite.ndim (max 12 (4 * b.Suite.radius))
      in
      let ranks_shape = Array.make b.Suite.ndim 2 in
      let st = Suite.stencil ~dims b in
      List.iter
        (fun backend ->
          List.iter
            (fun depth ->
              check_float
                (Printf.sprintf "%s/%s/depth%d" b.Suite.name
                   (Backend.to_string backend) depth)
                0.0
                (Distributed.validate
                   ~config:(Exec.Config.make ~backend ~depth ())
                   ~steps:3 ~ranks_shape st))
            [ 1; 2 ])
        compiled_backends)
    Suite.all

(* Deep temporal blocks, uneven rank extents (per-rank geometry differs, so
   each rank compiles its own kernel variant) and the periodic wrap. *)
let distributed_deep_uneven_periodic_exact () =
  let _, st = stencil_2d9pt_box ~m:13 ~n:17 () in
  List.iter
    (fun backend ->
      let name = Backend.to_string backend in
      check_float (name ^ ": depth 4 on uneven 3x2 ranks") 0.0
        (Distributed.validate
           ~config:(Exec.Config.make ~backend ~depth:4 ())
           ~steps:5 ~ranks_shape:[| 3; 2 |] st);
      check_float (name ^ ": periodic wrap, depth 1") 0.0
        (Distributed.validate
           ~config:(Exec.Config.make ~backend ())
           ~bc:Bc.Periodic ~steps:4 ~ranks_shape:[| 2; 2 |] st))
    compiled_backends

(* --- Exact chain lowering (qcheck) ---

   Random kernels over the input B and the aux grid C, each a +/- chain of
   operands drawn from the product forms the lowering accepts ([c*x],
   [x*c], [x], [-t], [(c*a)*x], [a*x], with [c] a literal, a parameter or
   a constant product, offsets free to repeat) and from forms it must
   leave to the tree ([c*(a+b)], [x/c], [c1*(c2*x)], [(x*c)*a],
   [(a*b)*x], a loop index). The lowering must pick the chain exactly
   when every operand is a product, and the compiled sweep must equal the
   tree interpreter bit for bit either way. *)

(* A random chain of one to six operands, each accepted by the lowering
   or not; returns the expression and the chain length the lowering must
   report ([None]: a tree). *)
let random_chain ?(nd = 2) rs =
  let int n = Random.State.int rs n in
  let module E = Msc_ir.Expr in
  let num () =
    (if Random.State.bool rs then 1.0 else -1.0) *. (0.25 +. Random.State.float rs 1.0)
  in
  let x () =
    E.read (if Random.State.bool rs then "B" else "C") (Array.init nd (fun _ -> int 5 - 2))
  in
  let c () =
    match int 3 with
    | 0 -> E.f (num ())
    | 1 -> E.p "w"
    | _ ->
        let k = 1 + int 3 in
        E.(f (num ()) * i k)
  in
  let operand () =
    match int 12 with
    | 0 -> (E.(c () * x ()), true)
    | 1 -> (E.(x () * c ()), true)
    | 2 -> (x (), true)
    | 3 -> (E.(neg (c () * x ())), true)
    | 4 -> (E.(c () * x () * x ()), true)
    | 5 -> (E.(x () * x ()), true)
    | 6 -> (E.(c () * (x () + x ())), false)
    | 7 -> (E.(x () / c ()), false)
    | 8 -> (E.(c () * (c () * x ())), false)
    | 9 -> (E.(x () * c () * x ()), false)
    | 10 -> (E.(x () * x () * x ()), false)
    | _ -> (E.(c () * Var "i"), false)
  in
  let n = 1 + int 6 in
  let first, ok0 = operand () in
  let expr, accepted =
    List.fold_left
      (fun (e, ok) _ ->
        let t, ok_t = operand () in
        ((if Random.State.bool rs then E.(e + t) else E.(e - t)), ok && ok_t))
      (first, ok0)
      (List.init (n - 1) Fun.id)
  in
  (expr, if accepted then Some n else None)

(* A random tree of depth at most 5 over every node kind, reading B and C
   within radius 1 of an [nd]-D grid. *)
let random_tree ?(nd = 2) rs =
  let int n = Random.State.int rs n in
  let module E = Msc_ir.Expr in
  let rec tree depth =
    if depth = 0 || int 4 = 0 then
      match int 6 with
      | 0 -> E.Fconst (Random.State.float rs 4.0 -. 2.0)
      | 1 -> E.Iconst (int 7 - 3)
      | 2 -> E.Param "w"
      | 3 -> E.Var (List.nth (Builder.default_index_vars nd) (int nd))
      | _ ->
          E.read (if Random.State.bool rs then "B" else "C") (Array.init nd (fun _ -> int 3 - 1))
    else
      let sub () = tree (depth - 1) in
      match int 4 with
      | 0 -> E.Unop (E.([| Neg; Abs; Sqrt; Exp; Sin; Cos |]).(int 6), sub ())
      | 1 | 2 -> E.Binop (E.([| Add; Sub; Mul; Div; Min; Max |]).(int 6), sub (), sub ())
      | _ -> (
          match int 5 with
          | 0 -> E.Call ("pow", [ sub (); sub () ])
          | 1 -> E.Call ("hypot", [ sub (); sub () ])
          | 2 -> E.Call ("fma", [ sub (); sub (); sub () ])
          | _ ->
              E.Call ([| "sqrt"; "exp"; "log"; "sin"; "cos"; "tanh"; "fabs" |].(int 7), [ sub () ]))
  in
  tree 5

(* Equal bits, or two NaNs. gcc treats a NaN's sign and payload as
   unspecified: it rewrites [c * (-x)] as [(-c) * x], and may swap the
   operands of a commutative operation where x86 keeps the first of two
   NaNs. So a NaN is not compared bit for bit; every other value is.
   Only tree terms make NaNs here: the square root or logarithm of a
   negative value, or 0/0. *)
let same_bits x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) || (Float.is_nan x && Float.is_nan y)

(* --- One sweep contract, two compilers (qcheck) ---

   [Interp.compile_sweep] and [Jit.compile_sweep] called on identical
   arguments must write identical bits. Term lists of one to four terms
   mix State terms, long product chains (up to 200 products over the
   input and the aux grid C, so long sweeps run as passes cut both inside
   terms and on term boundaries), the short chain-or-tree operands of
   [random_chain] (parameters, loop indices, forms the lowering leaves to
   the tree) and the whole trees of [random_tree] (loop-index reads,
   calls, min/max, division and the unary functions). Long chains mix
   every product form ([c*x], [x*c], [x], [-(c*x)], [(c*a)*x], [a*x])
   joined by [+] and [-], often repeat a coefficient, and their lengths
   fall on both sides of every 16-unit boundary; half of them walk rows
   (runs of products with the same outer offsets, some longer than a
   pass), the shape whose passes share bodies. Every aux slot gets its own
   array. The first term's scale is often exactly 1.0. Grids are 2-D
   (7 x 1100: rows wider than one strip; a range has 1 to 9 rows, so a
   single pass runs its 4 row lanes 0 to 2 times and its 1-row tail 0 to
   3 times) or 3-D (4 x 5 x 530: one row per iteration), and with
   [~passes:true] also 1-D (1500 points); ranges are random, from one
   point to the whole interior, and run into the halo. A quarter of the
   cases read grids of -0.0 through positive coefficients, where only the
   exact chain lead and fold order give matching signed zeros.

   With [~passes:true] every case is the tap-group pass shape: two long
   product-chain kernel terms, sometimes with a State term or a short
   chain-or-tree kernel term between them, so sweeps of 2 to 401 fold
   units are cut into passes both inside terms and on term boundaries. *)

let sweep_compilers_agree ~passes ~count name =
  let geometries =
    [|
      Builder.def_tensor_2d ~time_window:3 ~halo:8 "B" Msc_ir.Dtype.F64 7 1100;
      Builder.def_tensor_3d ~time_window:3 ~halo:3 "B" Msc_ir.Dtype.F64 4 5 530;
      Builder.def_tensor_1d ~time_window:3 ~halo:8 "B" Msc_ir.Dtype.F64 1500;
    |]
  in
  qc ~count name
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      if not (toolchain_for Backend.Compiled_c) then true
      else begin
        let rs = Random.State.make [| seed |] in
        let int n = Random.State.int rs n in
        let grid = geometries.(int (if passes then 3 else 2)) in
        let geometry = Grid.of_tensor grid in
        let shape = geometry.Grid.shape and halo = geometry.Grid.halo in
        let nd = Array.length shape in
        (* Long chains reach halo - 1, so a range may extend one point. *)
        let reach = halo.(0) - 1 in
        let coeff = Builder.coefficient_grid ~grid "C" in
        let zeros = int 4 = 0 in
        let long_chain () =
          let arity =
            match int 3 with
            | 0 -> 1 + int 12
            | 1 -> (16 * (1 + int 12)) + int 3 - 1
            | _ -> 1 + int 200
          in
          let draw () =
            if zeros then 0.125 +. Random.State.float rs 1.0
            else Random.State.float rs 2.0 -. 1.0
          in
          (* Coefficients repeat, as a box stencil's do, so passes share
             table entries. *)
          let palette = Array.init 3 (fun _ -> draw ()) in
          let c () = Msc_ir.Expr.f (if Random.State.bool rs then palette.(int 3) else draw ()) in
          let offset () = int ((2 * reach) + 1) - reach in
          (* Row walks keep the outer offsets for a run of 1 to 24
             products. *)
          let rows = Random.State.bool rs in
          let outer = ref (Array.init (nd - 1) (fun _ -> offset ())) and left = ref 0 in
          let pick () =
            if not rows then Array.init nd (fun _ -> offset ())
            else begin
              if !left = 0 then begin
                outer := Array.init (nd - 1) (fun _ -> offset ());
                left := 1 + int 24
              end;
              decr left;
              Array.append !outer [| offset () |]
            end
          in
          let input_only = Random.State.bool rs in
          let products =
            List.init arity (fun k ->
                Msc_ir.Expr.(
                  let x () = read "B" (pick ()) and a () = read "C" (pick ()) in
                  match int (if input_only || k = 0 then 4 else 7) with
                  | 0 -> c () * x ()
                  | 1 -> x () * c ()
                  | 2 -> x ()
                  | 3 -> neg (c () * x ())
                  | 4 -> c () * a () * x ()
                  | 5 -> a () * x ()
                  | _ -> c () * a ()))
          in
          List.fold_left
            (fun chain next ->
              if int 4 = 0 then Msc_ir.Expr.(chain - next) else Msc_ir.Expr.(chain + next))
            (List.hd products) (List.tl products)
        in
        (* [`Long] product chains, [`Short] chain-or-tree operands or
           [`Tree] whole trees over every node kind, drawn twice as often:
           a tree reading a loop index is what pins each row lane's
           coordinates. *)
        let kernel_term ?(form = [| `Long; `Short; `Tree; `Tree |].(int 4)) t =
          let expr =
            match form with
            | `Long -> long_chain ()
            | `Short -> fst (random_chain ~nd rs)
            | `Tree -> random_tree ~nd rs
          in
          let kernel =
            Msc_ir.Kernel.make
              ~bindings:[ ("w", Random.State.float rs 2.0 -. 1.0) ]
              ~aux:[ coeff ] ~name:(Printf.sprintf "K%d" t) ~input:grid
              ~index_vars:(Builder.default_index_vars nd) expr
          in
          fun scale -> Backend.Sweep_kernel { scale; kernel; halo }
        in
        let scale () =
          if Random.State.bool rs then 1.0 else Random.State.float rs 3.0 -. 1.5
        in
        let terms =
          if passes then
            let k0 = kernel_term ~form:`Long 0 (scale ()) in
            let k1 = kernel_term ~form:`Long 2 (scale ()) in
            match int 4 with
            | 0 -> [ k0; Backend.Sweep_state { scale = scale () }; k1 ]
            | 1 -> [ k0; kernel_term ~form:`Short 1 (scale ()); k1 ]
            | _ -> [ k0; k1 ]
          else
            let n = 1 + int 4 in
            let kernel_at = int n in
            List.init n (fun t ->
                let scale = scale () in
                if t = kernel_at || int 3 > 0 then kernel_term t scale
                else Backend.Sweep_state { scale })
        in
        let random_grid () =
          let g = Grid.of_tensor grid in
          Grid.fill_extended g (fun _ ->
              match if zeros then 1 else int 8 with
              | 0 -> 0.0
              | 1 -> -0.0
              | _ -> Random.State.float rs 4.0 -. 2.0);
          g
        in
        let srcs = Array.of_list (List.map (fun _ -> (random_grid ()).Grid.data) terms) in
        (* A distinct array per aux slot pins the slot layout too. *)
        let aux =
          Array.of_list
            (List.map (fun _ -> (random_grid ()).Grid.data) (Backend.sweep_aux_slots terms))
        in
        let lo = Array.map (fun n -> int (n + 1) - 1) shape in
        let hi = Array.mapi (fun d n -> lo.(d) + 1 + int (n + 1 - lo.(d))) shape in
        let run fn =
          let dst = Grid.of_tensor grid in
          Grid.fill_all dst 3.0;
          fn srcs dst.Grid.data aux lo hi;
          dst.Grid.data
        in
        match Jit.compile_sweep ~plan_digest:"test-sweep-compilers" terms with
        | Error msg -> QCheck.Test.fail_reportf "compile_sweep: %s" msg
        | Ok fn ->
            let got = run fn and want = run (Interp.compile_sweep ~geometry terms) in
            Array.iteri
              (fun j x ->
                if not (same_bits x want.(j)) then
                  QCheck.Test.fail_reportf "flat index %d: %h, interpreter %h; terms:\n%s" j x
                    want.(j)
                    (String.concat "\n"
                       (List.map
                          (function
                            | Backend.Sweep_state { scale } -> Printf.sprintf "State %h" scale
                            | Backend.Sweep_kernel { scale; kernel; _ } ->
                                Printf.sprintf "%h * %s" scale
                                  (Msc_ir.Expr.to_string kernel.Msc_ir.Kernel.expr))
                          terms)))
              got;
            true
      end)

let exact_chain_lowering =
  let grid = Builder.def_tensor_2d ~halo:2 "B" Msc_ir.Dtype.F64 6 9 in
  let coeff = Builder.coefficient_grid ~grid "C" in
  let geometry = Grid.of_tensor grid in
  let shape = geometry.Grid.shape in
  qc ~count:40 "chain lowering exact: compiled == tree interp"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let expr, expected_length = random_chain rs in
      let kernel =
        Msc_ir.Kernel.make
          ~bindings:[ ("w", Random.State.float rs 2.0 -. 1.0) ]
          ~aux:[ coeff ] ~name:"Rand"
          ~input:grid ~index_vars:[ "j"; "i" ] expr
      in
      let lowered = Jit.chain_length kernel in
      if lowered <> expected_length then
        QCheck.Test.fail_reportf "%s lowered to %s" (Msc_ir.Expr.to_string expr)
          (match lowered with Some n -> string_of_int n ^ " products" | None -> "a tree");
      let fill g =
        Grid.fill_extended g (fun _ ->
            match Random.State.int rs 8 with
            | 0 -> 0.0
            | 1 -> -0.0
            | _ -> Random.State.float rs 4.0 -. 2.0);
        g
      in
      let src = fill (Grid.of_tensor grid) and cg = fill (Grid.of_tensor coeff) in
      let aux = [ ("C", cg) ] in
      let expected = Grid.of_tensor grid in
      interp_apply ~aux kernel ~src ~dst:expected;
      if not (toolchain_for Backend.Compiled_c) then true
      else
        let terms = [ Backend.Sweep_kernel { scale = 1.0; kernel; halo = geometry.Grid.halo } ] in
        match Jit.compile_sweep ~plan_digest:"test-exact-chain" terms with
        | Error msg -> QCheck.Test.fail_reportf "compile_sweep: %s" msg
        | Ok fn ->
            let got = Grid.of_tensor grid in
            let slots = Array.of_list (List.map (fun _ -> cg.Grid.data) (Backend.sweep_aux_slots terms)) in
            fn [| src.Grid.data |] got.Grid.data slots (Array.make 2 0) shape;
            Array.for_all2
              (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
              got.Grid.data expected.Grid.data)

(* The closure-compiled tree against Expr.eval point by point, on random
   trees over every node kind: loop indices, calls, min/max, division and
   the unary functions, with constant subtrees the compiler folds. *)
let closure_eval_exact =
  let grid = Builder.def_tensor_2d ~halo:1 "B" Msc_ir.Dtype.F64 5 7 in
  let coeff = Builder.coefficient_grid ~grid "C" in
  qc ~count:200 "closure evaluator == Expr.eval bit for bit"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let expr = random_tree rs in
      let bindings = [ ("w", Random.State.float rs 2.0) ] in
      let kernel =
        Msc_ir.Kernel.make ~bindings ~aux:[ coeff ] ~name:"Rand" ~input:grid
          ~index_vars:[ "j"; "i" ] expr
      in
      let src = Grid.of_tensor grid and cg = Grid.of_tensor coeff in
      let v _ =
        if Random.State.int rs 8 = 0 then -0.0 else Random.State.float rs 4.0 -. 2.0
      in
      Grid.fill_extended src v;
      Grid.fill_extended cg v;
      let dst = Grid.of_tensor grid in
      interp_apply ~aux:[ ("C", cg) ] kernel ~src ~dst;
      let ok = ref true in
      for j = 0 to 4 do
        for i = 0 to 6 do
          let load (a : Msc_ir.Expr.access) =
            let g = if a.Msc_ir.Expr.tensor = "B" then src else cg in
            Grid.get g [| j + a.Msc_ir.Expr.offsets.(0); i + a.Msc_ir.Expr.offsets.(1) |]
          in
          let var n = float_of_int (if n = "j" then j else i) in
          let want = Msc_ir.Expr.eval ~bindings ~load ~var expr in
          let got = Grid.get dst [| j; i |] in
          if not (Int64.equal (Int64.bits_of_float want) (Int64.bits_of_float got)) then
            ok := false
        done
      done;
      !ok)

(* Lowering guard: every kernel the library ships in chain shape — the 8
   suite kernels, the solver Laplacian, variable-coefficient stars and the
   right-hand-side point kernel — must lower to a product chain of one
   fold unit per product. A tree-form wide stencil compiles as one whole
   expression per row lane. *)
let library_kernels_lower_to_chains () =
  List.iter
    (fun (b : Suite.bench) ->
      let k = Suite.kernel_of (Suite.stencil ~dims:(small_dims b) b) in
      let n = Msc_frontend.Shapes.point_count b.Suite.shape ~ndim:b.Suite.ndim ~radius:b.Suite.radius in
      check_bool (b.Suite.name ^ " is a chain of its points") true (Jit.chain_length k = Some n))
    Suite.all;
  let g2 = Builder.def_tensor_2d ~halo:1 "B" Msc_ir.Dtype.F64 8 8 in
  let g3 = Builder.def_tensor_3d ~halo:1 "B" Msc_ir.Dtype.F64 6 6 6 in
  check_bool "2-D laplacian" true (Jit.chain_length (Builder.laplacian_kernel g2) = Some 5);
  check_bool "3-D laplacian" true (Jit.chain_length (Builder.laplacian_kernel g3) = Some 7);
  let coeff = Builder.coefficient_grid ~grid:g2 "C" in
  List.iter
    (fun (shape, radius, n) ->
      check_bool
        (Printf.sprintf "var_coeff r=%d" radius)
        true
        (Jit.chain_length
           (Builder.var_coeff_kernel ~name:"VC" ~coeff ~shape ~radius g2)
        = Some n))
    [ (Msc_frontend.Shapes.Star, 1, 5); (Msc_frontend.Shapes.Box, 1, 9) ];
  check_bool "aux point kernel" true
    (Jit.chain_length (Builder.aux_point_kernel ~aux:coeff g2) = Some 1)

(* --- Trees and mixed chains ---

   The fused sweep must compile these and stay bit-identical. *)

(* Nonlinear kernel (a tree): sqrt/mul force the tree form, Max exercises
   the hand-ported Float.max semantics in C. *)
let stencil_tree_2d ?(n = 12) () =
  let grid = Builder.def_tensor_2d ~time_window:2 ~halo:1 "B" Msc_ir.Dtype.F64 n n in
  let k =
    Builder.kernel ~name:"TreeK" ~grid
      Msc_ir.Expr.(
        Binop
          ( Max,
            Call ("sqrt", [ (read "B" [| 0; 0 |] * read "B" [| 0; 0 |]) + f 1.0 ]),
            f 0.25 * read "B" [| 1; 0 |] ))
  in
  Builder.two_step ~name:"tree2d" k

(* A tree reading a coefficient grid: aux slots flow through the tree ABI
   ((C * B) * B has three reads, not a chain product). The row index [j]
   term pins each of the C sweep's 4 row lanes to its own row. *)
let stencil_tree_aux_2d ?(n = 10) () =
  let grid = Builder.def_tensor_2d ~time_window:2 ~halo:1 "B" Msc_ir.Dtype.F64 n n in
  let coeff = Builder.coefficient_grid ~grid "C" in
  let k =
    Msc_ir.Kernel.make ~aux:[ coeff ] ~name:"TreeAux" ~input:grid
      ~index_vars:[ "j"; "i" ]
      Msc_ir.Expr.(
        (read "C" [| 0; 0 |] * read "B" [| 0; 0 |] * read "B" [| 0; 0 |])
        + (f 0.2 * read "B" [| 0; 1 |])
        + (f 0.01 * Var "j"))
  in
  Builder.two_step ~name:"treeaux2d" k

(* A chain mixing (w*C)*B products with c*B products that read no aux
   grid, and a subtracted product. *)
let stencil_mixed_bilinear_2d ?(n = 12) () =
  let grid = Builder.def_tensor_2d ~time_window:2 ~halo:1 "B" Msc_ir.Dtype.F64 n n in
  let coeff = Builder.coefficient_grid ~grid "C" in
  let k =
    Msc_ir.Kernel.make
      ~bindings:[ ("w", 0.25) ]
      ~aux:[ coeff ] ~name:"MixB" ~input:grid ~index_vars:[ "j"; "i" ]
      Msc_ir.Expr.(
        (p "w" * read "C" [| 0; 0 |] * read "B" [| 0; 1 |])
        + (f 0.5 * read "B" [| 1; 0 |])
        - (f 0.125 * read "B" [| 0; 0 |]))
  in
  Builder.two_step ~name:"mixb2d" k

(* The 3-D counterpart: a tree reading a coefficient grid and [Var "j"],
   the second-innermost index. A 3-D single pass walks one row at a time,
   so [j] and the aux reads must follow it; 7 and 9 rows are not
   multiples of 4. *)
let stencil_tree_aux_3d ?(rows = 7) () =
  let grid = Builder.def_tensor_3d ~time_window:2 ~halo:1 "B" Msc_ir.Dtype.F64 5 rows 6 in
  let coeff = Builder.coefficient_grid ~grid "C" in
  let k =
    Msc_ir.Kernel.make ~aux:[ coeff ] ~name:"TreeAux3" ~input:grid
      ~index_vars:[ "k"; "j"; "i" ]
      Msc_ir.Expr.(
        (read "C" [| 0; 1; 0 |] * read "B" [| 0; 0; 0 |] * read "B" [| 1; 0; 0 |])
        + (f 0.2 * read "B" [| 0; -1; 1 |])
        + (f 0.01 * Var "j"))
  in
  Builder.two_step ~name:"treeaux3d" k

let former_fallback_forms_compile () =
  List.iter
    (fun (fname, st) ->
      let interp, _ = final ~backend:Backend.Interp ~steps:3 st in
      List.iter
        (fun backend ->
          let name = Printf.sprintf "%s/%s" fname (Backend.to_string backend) in
          let got_fused, report = final ~backend ~steps:3 st in
          if toolchain_for backend then begin
            check_bool (name ^ ": no fallback") true
              (report.Runtime.fallback = None);
            check_int (name ^ ": compiled fused") 1 report.Runtime.fused_sweeps
          end;
          check_bool (name ^ ": fused bit-identical") true
            (got_fused.Grid.data = interp.Grid.data))
        compiled_backends)
    [
      ("tree2d", stencil_tree_2d ());
      ("treeaux2d", stencil_tree_aux_2d ());
      ("mixb2d", stencil_mixed_bilinear_2d ());
      ("treeaux3d", stencil_tree_aux_3d ());
      ("treeaux3d/9 rows", stencil_tree_aux_3d ~rows:9 ());
    ]

let suite_layout ~dims name =
  let st = Suite.stencil ~dims (Suite.find name) in
  match Jit.sweep_layout (Backend.sweep_terms ~halo:st.Msc_ir.Stencil.grid.Msc_ir.Tensor.halo st) with
  | Ok l -> l
  | Error msg -> Alcotest.fail (name ^ ": " ^ msg)

(* The loop nest fits the grid: a 2-D single pass runs 4 row lanes
   ([row_block]), a 3-D one walks one row per iteration like every other
   pass ([passes]; lanes cost 3-D sweeps their memory streams). *)
let row_block_only_in_2d () =
  let check name nest =
    let b = Suite.find name in
    (* [Jit.emit_c_sweep] of the stencil's terms, the C both backends run. *)
    let src =
      match Msc_codegen.Emit_cpu.fused_sweep_source (Suite.stencil ~dims:(small_dims b) b) with
      | Some src -> src
      | None -> Alcotest.fail (name ^ ": no fused sweep")
    in
    let layout = suite_layout ~dims:(small_dims b) name in
    check_string (name ^ ": nest") nest layout.Jit.nest;
    check_bool (name ^ ": 4 row lanes") (nest = "row_block") (contains src "r += 4)")
  in
  check "2d9pt_box" "row_block";
  check "2d9pt_star" "row_block";
  check "3d7pt_star" "passes";
  check "3d13pt_star" "passes"

(* Table-driven passes keep the C of a long sweep flat in stencil order:
   the high-order box kernels may unroll no more fold-unit statements than
   the largest single pass, the 2-D 4 row lanes of 32 units and their
   1-row tail. One literal statement per product would be 242 and 338. *)
let max_unit_statements = 5 * 32

let pass_statements_flat () =
  List.iter
    (fun name ->
      let l = suite_layout ~dims:[| 256; 256 |] name in
      check_string (name ^ ": passes") "passes" l.Jit.nest;
      check_bool
        (Printf.sprintf "%s: %d bodies, %d unit statements <= %d" name l.Jit.pass_bodies
           l.Jit.unit_statements max_unit_statements)
        true
        (l.Jit.unit_statements <= max_unit_statements))
    [ "2d121pt_box"; "2d169pt_box" ]

(* --- Pool-parallel fused dispatch --- *)

let fused_pool_stress () =
  let k, st = stencil_3d7pt ~n:12 () in
  let sched = Schedule.matrix_canonical ~tile:[| 4; 5; 6 |] ~threads:4 k in
  let interp, _ = final ~schedule:sched ~backend:Backend.Interp ~steps:4 st in
  List.iter
    (fun backend ->
      if toolchain_for backend then begin
        let name = Backend.to_string backend in
        let pool = Msc_util.Domain_pool.create 4 in
        Fun.protect
          ~finally:(fun () -> Msc_util.Domain_pool.shutdown pool)
          (fun () ->
            let got, report =
              final ~schedule:sched ~pool ~backend ~steps:4 st
            in
            check_int (name ^ ": fused on the pool") 1 report.Runtime.fused_sweeps;
            check_bool (name ^ ": tile tasks dispatched") true
              (report.Runtime.tile_dispatches >= 4 * 8);
            check_bool (name ^ ": pool-parallel fused bit-identical") true
              (got.Grid.data = interp.Grid.data))
      end)
    compiled_backends

(* --- Failure-kind accounting --- *)

let unsupported_form_counted () =
  let k, st = stencil_2d9pt_box ~m:8 ~n:8 () in
  let geometry = Grid.of_tensor st.Msc_ir.Stencil.grid in
  (* 65 terms exceed the native-stub slot limit: an unsupported form, not a
     toolchain problem. *)
  let terms =
    List.init 65 (fun _ -> Backend.Sweep_kernel { scale = 1.0; kernel = k; halo = geometry.Grid.halo })
  in
  let s0 = Jit.stats () in
  (match Jit.compile_sweep ~plan_digest:"too-many" terms with
  | Ok _ -> Alcotest.fail "expected compile_sweep to reject 65 terms"
  | Error _ -> ());
  let s1 = Jit.stats () in
  check_int "unsupported counted"
    (s0.Jit.failures_unsupported + 1)
    s1.Jit.failures_unsupported;
  check_int "toolchain count unchanged" s0.Jit.failures_toolchain
    s1.Jit.failures_toolchain

(* A form the emitter rejects (an infinite tap coefficient has no exact
   literal) falls back to the interpreter for the whole sweep, reports why,
   and still produces the interpreter's bits. Independent of the
   toolchain: the form is rejected before any compiler runs. *)
let rejected_form_falls_back () =
  let grid = Builder.def_tensor_2d ~time_window:2 ~halo:1 "B" Msc_ir.Dtype.F64 8 9 in
  let k =
    Builder.kernel ~name:"InfK" ~grid
      Msc_ir.Expr.(
        (f Float.infinity * read "B" [| 0; 1 |]) + (f 0.5 * read "B" [| 0; 0 |]))
  in
  let st = Builder.two_step ~name:"inf2d" k in
  let interp, _ = final ~backend:Backend.Interp ~steps:2 st in
  let got, report = final ~backend:Backend.Compiled_c ~steps:2 st in
  check_bool "degraded to interp" true
    (Backend.equal report.Runtime.effective Backend.Interp);
  check_int "no fused sweep" 0 report.Runtime.fused_sweeps;
  check_int "nothing compiled" 0 report.Runtime.compiled_terms;
  (match report.Runtime.fallback with
  | Some reason ->
      check_bool ("reason names the form: " ^ reason) true
        (contains reason "non-finite")
  | None -> Alcotest.fail "fallback reason missing");
  check_bool "interpreter bits" true
    (Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       got.Grid.data interp.Grid.data)

(* --- Backend names --- *)

let backend_names_round_trip () =
  List.iter
    (fun b ->
      match Backend.of_string (Backend.to_string b) with
      | Ok b' ->
          check_bool (Backend.to_string b ^ " round-trips") true (Backend.equal b b')
      | Error msg -> Alcotest.fail msg)
    Backend.all;
  List.iter
    (fun name ->
      match Backend.of_string name with
      | Ok _ -> Alcotest.failf "%S must be rejected" name
      | Error msg ->
          check_bool (name ^ ": " ^ msg) true
            (contains msg "(expected interp|compiled_c)"))
    [ "native"; "native_ocaml" ]

(* --- AOT: generated standalone C shares the fused sweep body --- *)

let aot_fused_matches_legacy () =
  if not (Codegen.Toolchain.available ()) then ()
  else begin
    let st = stencil_mixed_bilinear_2d ~n:12 () in
    let k = List.hd (Msc_ir.Stencil.kernels st) in
    let sched = Schedule.cpu_canonical ~tile:[| 4; 6 |] ~threads:2 k in
    let legacy = Codegen.generate ~steps:3 st sched Codegen.Cpu in
    let fused =
      Codegen.generate ~steps:3
        ~config:(Exec.Config.make ~backend:Backend.Compiled_c ())
        st sched Codegen.Cpu
    in
    let has_sweep files =
      List.exists
        (fun f ->
          Filename.check_suffix f.Codegen.name ".c"
          && contains f.Codegen.contents "msc_sweep")
        files
    in
    check_bool "legacy step has no fused body" false (has_sweep legacy);
    check_bool "fused step embeds the sweep" true (has_sweep fused);
    let run tag files =
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "msc-test-aot-%s-%d" tag (Unix.getpid ()))
      in
      match Codegen.Toolchain.compile_and_run ~steps:3 ~dir files with
      | Ok r -> r.Codegen.Toolchain.checksum
      | Error msg -> Alcotest.fail (tag ^ ": " ^ msg)
    in
    let cl = run "legacy" legacy and cf = run "fused" fused in
    check_bool "checksums agree" true
      (Float.abs (cf -. cl) /. Float.max 1.0 (Float.abs cl) < 1e-12)
  end

(* --- Kernel cache: compile once, then memo, then disk --- *)

let cache_compiles_once () =
  if not (toolchain_for Backend.Compiled_c) then ()
  else
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "msc-test-kernels-cold-%d" (Unix.getpid ()))
    in
    with_cache_dir dir (fun () ->
        let _, st = stencil_3d7pt ~n:8 () in
        let s0 = Jit.stats () in
        ignore (final ~backend:Backend.Compiled_c ~steps:1 st);
        let s1 = Jit.stats () in
        check_bool "first runtime compiles" true (s1.Jit.compiles > s0.Jit.compiles);
        check_int "no unsupported-form failures" s0.Jit.failures_unsupported
          s1.Jit.failures_unsupported;
        check_int "no toolchain failures" s0.Jit.failures_toolchain
          s1.Jit.failures_toolchain;
        ignore (final ~backend:Backend.Compiled_c ~steps:1 st);
        let s2 = Jit.stats () in
        check_int "second runtime recompiles nothing" s1.Jit.compiles
          s2.Jit.compiles;
        check_bool "served from the in-process memo" true
          (s2.Jit.memo_hits > s1.Jit.memo_hits);
        (* A fresh process would miss the memo but find the artifacts: clear
           the memo and demand disk hits, still without compiling. *)
        Jit.clear_memo ();
        ignore (final ~backend:Backend.Compiled_c ~steps:1 st);
        let s3 = Jit.stats () in
        check_int "disk reuse recompiles nothing" s2.Jit.compiles s3.Jit.compiles;
        check_bool "served from the on-disk cache" true
          (s3.Jit.disk_hits > s2.Jit.disk_hits))

(* A truncated artifact in the cache must not degrade the kernel for good:
   loading it fails, so the JIT removes it and rebuilds once. The broken
   file sits in a second cache directory under the name the first compile
   produced, because a path this process has already loaded would be
   served by the dynamic loader without reading the file again. *)
let corrupt_artifact_rebuilt () =
  if not (toolchain_for Backend.Compiled_c) then ()
  else
    let dir tag =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "msc-test-kernels-%s-%d" tag (Unix.getpid ()))
    in
    let good = dir "good" and broken = dir "broken" in
    let _, st = stencil_3d7pt ~n:8 () in
    let sweeps d =
      List.filter
        (fun f -> Filename.check_suffix f ".so" && contains f "msc_sweep_")
        (Array.to_list (Sys.readdir d))
    in
    let artifact =
      with_cache_dir good (fun () ->
          ignore (final ~backend:Backend.Compiled_c ~steps:1 st);
          match sweeps good with
          | [ f ] -> f
          | fs -> Alcotest.failf "expected one sweep artifact, found %d" (List.length fs))
    in
    with_cache_dir broken (fun () ->
        (try Sys.mkdir broken 0o755 with Sys_error _ -> ());
        close_out (open_out_bin (Filename.concat broken artifact));
        let s0 = Jit.stats () in
        let got, report = final ~backend:Backend.Compiled_c ~steps:1 st in
        let s1 = Jit.stats () in
        check_bool "compiled_c ran" true
          (Backend.equal report.Runtime.effective Backend.Compiled_c);
        check_bool "no fallback" true (report.Runtime.fallback = None);
        check_int "rebuilt once" (s0.Jit.compiles + 1) s1.Jit.compiles;
        check_int "no toolchain failure" s0.Jit.failures_toolchain s1.Jit.failures_toolchain;
        check_bool "artifact replaced" true
          ((Unix.stat (Filename.concat broken artifact)).Unix.st_size > 0);
        let interp, _ = final ~backend:Backend.Interp ~steps:1 st in
        check_bool "rebuilt kernel bit-identical" true (got.Grid.data = interp.Grid.data))

(* --- JIT spans: a cold create compiles once, a warm one only looks up --- *)

let jit_spans_cold_then_warm () =
  if not (toolchain_for Backend.Compiled_c) then ()
  else
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "msc-test-kernels-spans-%d" (Unix.getpid ()))
    in
    with_cache_dir dir (fun () ->
        let _, st = stencil_3d7pt ~n:8 () in
        let create () =
          let trace = Msc_trace.create () in
          ignore
            (Runtime.create ~trace
               ~config:(Exec.Config.make ~backend:Backend.Compiled_c ())
               st);
          trace
        in
        let spans trace name =
          List.length
            (List.filter
               (function
                 | Msc_trace.Span { name = n; _ } -> String.equal n name
                 | Msc_trace.Counter _ -> false)
               (Msc_trace.events trace))
        in
        let cold = create () in
        check_int "cold create: one jit.compile span" 1 (spans cold "jit.compile");
        check_int "cold create: one jit.lookup span" 1 (spans cold "jit.lookup");
        check_int "cold create: one jit.await span" 1 (spans cold "jit.await");
        let warm = create () in
        check_int "warm re-create: no jit.compile span" 0 (spans warm "jit.compile");
        check_int "warm re-create: one jit.lookup span" 1 (spans warm "jit.lookup");
        check_int "warm re-create: no jit.await span" 0 (spans warm "jit.await"))

(* --- No toolchain: automatic interpreter fallback --- *)

let no_toolchain_falls_back () =
  let saved_path = try Sys.getenv "PATH" with Not_found -> "" in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msc-test-kernels-nopath-%d" (Unix.getpid ()))
  in
  with_cache_dir dir (fun () ->
      Fun.protect
        ~finally:(fun () -> Unix.putenv "PATH" saved_path)
        (fun () ->
          Unix.putenv "PATH" "/nonexistent";
          let _, st = stencil_3d7pt ~n:8 () in
          let interp, _ = final ~backend:Backend.Interp ~steps:2 st in
          let s0 = Jit.stats () in
          List.iter
            (fun backend ->
              let name = Backend.to_string backend in
              let got, report = final ~backend ~steps:2 st in
              check_bool (name ^ ": degraded to interp") true
                (Backend.equal report.Runtime.effective Backend.Interp);
              check_bool (name ^ ": requested backend recorded") true
                (Backend.equal report.Runtime.requested backend);
              check_int (name ^ ": nothing compiled") 0
                report.Runtime.compiled_terms;
              check_int (name ^ ": no fused sweep") 0 report.Runtime.fused_sweeps;
              check_bool (name ^ ": fallback reason reported") true
                (report.Runtime.fallback <> None);
              check_bool (name ^ ": results still exact") true
                (got.Grid.data = interp.Grid.data))
            compiled_backends;
          let s1 = Jit.stats () in
          check_bool "counted as toolchain failures" true
            (s1.Jit.failures_toolchain > s0.Jit.failures_toolchain);
          check_int "no unsupported-form failures" s0.Jit.failures_unsupported
            s1.Jit.failures_unsupported))

(* --- Background compiles: failures fall back, every child is reaped ---

   A create starts its compilers as child processes and waits for them
   only after filling its grids. Whatever happens, none may be left
   unreaped and none may stay registered as in flight. *)

(* True when this process has no child, running or zombie. *)
let no_children_left () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

let scratch_dir tag =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msc-test-kernels-%s-%d" tag (Unix.getpid ()))
  in
  (try Sys.mkdir d 0o755 with Sys_error _ -> ());
  d

let compiled_config = Exec.Config.make ~backend:Backend.Compiled_c ()

let failing_compiler_falls_back () =
  if not (toolchain_for Backend.Compiled_c) then ()
  else begin
    let bin = scratch_dir "fakecc" in
    let cc = Filename.concat bin "cc" in
    let oc = open_out cc in
    output_string oc "#!/bin/sh\nexit 1\n";
    close_out oc;
    Unix.chmod cc 0o755;
    let saved_path = try Sys.getenv "PATH" with Not_found -> "" in
    with_cache_dir (scratch_dir "fakecc-cache") (fun () ->
        let _, st = stencil_3d7pt ~n:8 () in
        let s0 = Jit.stats () in
        let report =
          Fun.protect
            ~finally:(fun () -> Unix.putenv "PATH" saved_path)
            (fun () ->
              Unix.putenv "PATH" (bin ^ ":" ^ saved_path);
              Runtime.backend_report (Runtime.create ~config:compiled_config st))
        in
        let s1 = Jit.stats () in
        check_bool "degraded to interp" true
          (Backend.equal report.Runtime.effective Backend.Interp);
        check_bool "reason names the failed compiler" true
          (match report.Runtime.fallback with
          | Some msg -> contains msg "cc failed"
          | None -> false);
        check_int "one toolchain failure" (s0.Jit.failures_toolchain + 1)
          s1.Jit.failures_toolchain;
        check_bool "no child left unreaped" true (no_children_left ());
        (* The failed build left nothing in flight: with the real PATH the
           same kernel compiles. *)
        let report = Runtime.backend_report (Runtime.create ~config:compiled_config st) in
        let s2 = Jit.stats () in
        check_bool "real compiler: compiled_c" true
          (Backend.equal report.Runtime.effective Backend.Compiled_c);
        check_int "real compiler: compiled once" (s1.Jit.compiles + 1) s2.Jit.compiles)
  end

(* A create that raises after starting its compiles (here: in [init], while
   the window fills) still waits for them. A graph with two compiled
   stages also covers a compile queued behind another. *)
let raising_create_reaps () =
  if not (toolchain_for Backend.Compiled_c) then ()
  else
    with_cache_dir (scratch_dir "raise-cache") (fun () ->
        let init _ _ = failwith "init failed" in
        let raises f =
          match f () with _ -> false | exception Failure _ -> true
        in
        let _, st = stencil_3d7pt ~n:8 () in
        let g =
          Msc_graph.Pass.apply Msc_graph.Pass.default_pipeline
            (Suite.pipeline ~dims:[| 24; 24 |] "unsharp_mask")
        in
        let s0 = Jit.stats () in
        check_bool "create raises" true
          (raises (fun () -> Runtime.create ~config:compiled_config ~init st));
        check_bool "create_graph raises" true
          (raises (fun () -> Runtime.create_graph ~config:compiled_config ~init g));
        check_bool "no child left unreaped" true (no_children_left ());
        let s1 = Jit.stats () in
        check_int "every started compile finished"
          (s0.Jit.compiles + 1 + List.length g.Msc_graph.Graph.stages)
          s1.Jit.compiles;
        (* Their kernels reached the memo. *)
        let rt = Runtime.create_graph ~config:compiled_config g in
        check_int "graph re-create: every stage compiled"
          (List.length g.Msc_graph.Graph.stages)
          (Runtime.backend_report rt).Runtime.fused_sweeps;
        check_int "graph re-create compiles nothing" s1.Jit.compiles (Jit.stats ()).Jit.compiles)

(* Two compiles started at once, then only polled: [Jit.poll] reaps each
   child as it exits (ending its jit.compile span) and launches a compile
   queued behind it, so both finish before anyone awaits. *)
let poll_reaps_and_launches () =
  if not (toolchain_for Backend.Compiled_c) then ()
  else
    with_cache_dir (scratch_dir "poll-cache") (fun () ->
        let trace = Msc_trace.create () in
        let start st =
          let plan = Result.get_ok (Msc_schedule.Plan.compile st Schedule.empty) in
          Jit.start_sweep ~trace ~plan_digest:plan.Msc_schedule.Plan.digest
            (Backend.sweep_terms ~halo:st.Msc_ir.Stencil.grid.Msc_ir.Tensor.halo st)
        in
        let compiled () =
          List.length
            (List.filter
               (function
                 | Msc_trace.Span { name; _ } -> String.equal name "jit.compile"
                 | Msc_trace.Counter _ -> false)
               (Msc_trace.events trace))
        in
        let jobs = [ start (snd (stencil_3d7pt ~n:8 ())); start (snd (stencil_2d9pt_box ())) ] in
        let deadline = Unix.gettimeofday () +. 60.0 in
        while compiled () < 2 && Unix.gettimeofday () < deadline do
          Jit.poll ();
          Unix.sleepf 0.005
        done;
        check_int "both children reaped by polling" 2 (compiled ());
        List.iter
          (fun job -> check_bool "awaited kernel loads" true (Result.is_ok (Jit.await job)))
          jobs;
        check_bool "no child left unreaped" true (no_children_left ()))

(* A kernel cache nobody can create: [MSC_KERNEL_CACHE] names a directory
   under a regular file, which fails for every user, root included. The
   create falls back to the interpreter with a reason, leaves no compiler
   running, and steps bit for bit like the reference oracle. *)
let unwritable_cache_falls_back () =
  let file = Filename.concat (scratch_dir "unwritable") "plain-file" in
  Out_channel.with_open_text file (fun oc -> output_string oc "not a directory\n");
  with_cache_dir (Filename.concat file "cache") (fun () ->
      let _, st = stencil_3d7pt ~n:8 () in
      let rt = Runtime.create ~config:compiled_config ~init:bumpy_init ~bc:Bc.Periodic st in
      let report = Runtime.backend_report rt in
      check_bool "degraded to interp" true
        (Backend.equal report.Runtime.effective Backend.Interp);
      check_bool "fallback has a reason" true (report.Runtime.fallback <> None);
      check_bool "no child left unreaped" true (no_children_left ());
      let reference = Oracles.Reference.create ~init:bumpy_init ~bc:Bc.Periodic st in
      Runtime.run rt 5;
      Oracles.Reference.run reference 5;
      check_bool "bit-identical to the reference" true
        ((Runtime.current rt).Grid.data = (Oracles.Reference.current reference).Grid.data))

(* --- Emitter salt: every artifact of every emitter carries the version ---

   The cache key folds [Jit.emitter_version] in and the file name embeds it,
   so a shared cache directory can never serve artifacts generated by an
   older emitter: a version bump changes every name, and stale files are
   simply never looked up again. *)

let emitter_salt_in_artifacts () =
  if not (toolchain_for Backend.Compiled_c) then ()
  else
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "msc-test-kernels-salt-%d" (Unix.getpid ()))
    in
    with_cache_dir dir (fun () ->
        let _, st = stencil_3d7pt ~n:8 () in
        (* One fused sweep and one reduction kernel: both emitters must
           salt uniformly. *)
        ignore (final ~backend:Backend.Compiled_c ~steps:1 st);
        let g = Grid.create ~shape:[| 8; 8; 8 |] ~halo:[| 1; 1; 1 |] in
        let red =
          Msc_exec.Reduction.create
            ~config:(Exec.Config.make ~backend:Backend.Compiled_c ())
            g
        in
        check_bool "reduction compiled" true (Msc_exec.Reduction.compiled red);
        let v = Jit.emitter_version in
        check_bool "salt is non-empty" true (String.length v > 0);
        let prefixed p f =
          String.length f >= String.length p && String.sub f 0 (String.length p) = p
        in
        let artifacts =
          List.filter
            (fun f -> prefixed "msc_sweep_" f || prefixed "msc_reduce_" f)
            (Array.to_list (Sys.readdir dir))
        in
        check_bool "artifacts exist" true (List.length artifacts >= 2);
        List.iter
          (fun f ->
            check_bool (f ^ " carries the emitter salt") true
              (prefixed ("msc_sweep_" ^ v ^ "_") f
              || prefixed ("msc_reduce_" ^ v ^ "_") f))
          artifacts;
        List.iter
          (fun kind ->
            check_bool (kind ^ " artifact present") true
              (List.exists (prefixed (kind ^ "_" ^ v ^ "_")) artifacts))
          [ "msc_sweep"; "msc_reduce" ])

(* --- Pool inline cutoff: tiny parallel sweeps never wake the pool --- *)

let pool_inline_cutoff_small_sweeps () =
  (* 14x18 = 252 points per sweep, far under the 32768-point threshold: a
     parallel schedule on a 4-worker pool must run inline — zero helper
     domains spawned — and report it. *)
  let k, st = stencil_2d9pt_box ~m:14 ~n:18 () in
  let sched = Schedule.matrix_canonical ~tile:[| 7; 6 |] ~threads:4 k in
  let interp, _ = final ~schedule:sched ~backend:Backend.Interp ~steps:3 st in
  let pool = Msc_util.Domain_pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Msc_util.Domain_pool.shutdown pool)
    (fun () ->
      let got, report =
        final ~schedule:sched ~pool ~backend:Backend.Interp ~steps:3 st
      in
      check_int "cutoff reported" 32768 report.Runtime.pool_inline_cutoff;
      check_bool "sweeps ran inline" true (report.Runtime.inline_dispatches >= 3);
      check_int "no helper domains spawned" 0
        (Msc_util.Domain_pool.spawn_total pool);
      check_bool "inline dispatch bit-identical" true
        (got.Grid.data = interp.Grid.data))

let pool_inline_cutoff_big_sweeps_dispatch () =
  (* 32^3 = 32768 points is exactly at the threshold (not under it): the
     pool must genuinely dispatch. *)
  let k, st = stencil_3d7pt ~n:32 () in
  let sched = Schedule.matrix_canonical ~tile:[| 8; 16; 32 |] ~threads:4 k in
  let pool = Msc_util.Domain_pool.create 4 in
  Fun.protect
    ~finally:(fun () -> Msc_util.Domain_pool.shutdown pool)
    (fun () ->
      let _, report =
        final ~schedule:sched ~pool ~backend:Backend.Interp ~steps:1 st
      in
      check_int "nothing inlined" 0 report.Runtime.inline_dispatches;
      check_bool "helpers spawned" true
        (Msc_util.Domain_pool.spawn_total pool > 0))

let suites =
  [
    ( "backend.parity",
      [
        slow "suite bit-identity (all backends)" suite_parity_bit_identical;
        tc "bit-identity under BCs" parity_under_bcs;
        tc "State-only stencil on compiled_c" state_only_stencil_compiled;
      ] );
    ( "backend.fused",
      [
        sweep_compilers_agree ~passes:false ~count:60
          "fused sweep == interp sweep on random term lists";
        sweep_compilers_agree ~passes:true ~count:24
          "tap-group passes == interp on random long sweeps";
        exact_chain_lowering;
        closure_eval_exact;
        tc "library kernels lower to chains" library_kernels_lower_to_chains;
        tc "tree + unnamed-aux forms compile" former_fallback_forms_compile;
        tc "4-row block only in 2-D" row_block_only_in_2d;
        tc "pass statements flat in stencil order" pass_statements_flat;
        slow "pool-parallel fused dispatch" fused_pool_stress;
        tc "unsupported form counted" unsupported_form_counted;
        slow "AOT embeds fused sweep" aot_fused_matches_legacy;
        tc "rejected form falls back to interp" rejected_form_falls_back;
      ] );
    ( "backend.distributed",
      [
        slow "suite x backends x engines" distributed_matrix_exact;
        tc "deep/uneven/periodic" distributed_deep_uneven_periodic_exact;
      ] );
    ( "backend.cache",
      [
        tc "compile once, memo, disk" cache_compiles_once;
        tc "truncated artifact rebuilt once" corrupt_artifact_rebuilt;
        tc "traced create: jit spans cold and warm" jit_spans_cold_then_warm;
        tc "no toolchain -> interp fallback" no_toolchain_falls_back;
        tc "failing compiler -> fallback, children reaped" failing_compiler_falls_back;
        tc "raising create reaps its compiles" raising_create_reaps;
        tc "poll reaps and launches queued compiles" poll_reaps_and_launches;
        tc "unwritable cache -> interp fallback" unwritable_cache_falls_back;
        tc "emitter salt in every artifact" emitter_salt_in_artifacts;
      ] );
    ("backend.names", [ tc "of_string round trip" backend_names_round_trip ]);
    ( "backend.pool_cutoff",
      [
        tc "small sweeps run inline" pool_inline_cutoff_small_sweeps;
        slow "big sweeps use the pool" pool_inline_cutoff_big_sweeps_dispatch;
      ] );
  ]
