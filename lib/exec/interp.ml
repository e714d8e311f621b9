open Msc_ir

(* What one term of a sweep evaluates against: its input grid's data, its
   aux arrays in [aux_names] order, and the current point's interior
   coordinate (read by [Var] nodes only). Every sweep call builds its own,
   so pool workers sweeping tiles with one function share nothing
   mutable. *)
type env = { src : float array; aux : float array array; coord : int array }

type t = {
  eval : env -> int -> float;  (* the kernel's value at flat index [i] *)
  aux_names : string array;  (* aux tensors read, in first-use order *)
  shape : int array;
  halo : int array;
  range_slack : int array;
      (* how far a sweep range may extend past the interior per dimension:
         halo minus the kernel's own radius, so every read stays inside the
         padded box. The temporal-blocking engine sweeps such extended
         ranges to recompute ghost cells; zero for the common halo = radius
         geometry, negative for a geometry thinner than the kernel's
         reach. *)
}

let flat_delta strides offsets =
  let delta = ref 0 in
  Array.iteri (fun d off -> delta := !delta + (off * strides.(d))) offsets;
  !delta

(* {2 Closure compilation}

   The tree compiles once into closures over an [env] and a flat point
   index. Constant subtrees fold to their value and accesses resolve to
   (array slot, flat delta) up front; every node then applies exactly the
   arithmetic [Expr.eval] applies there ([Expr.apply_unop],
   [Expr.apply_binop], [Expr.call]), so a sweep is bit-identical to
   evaluating the tree point by point. *)

type node =
  | Const of float
  | Read of int * int  (* aux slot ([-1]: the input grid), flat delta *)
  | Code of (env -> int -> float)

let code = function
  | Const x -> fun _ _ -> x
  | Read (-1, d) -> fun env i -> Array.unsafe_get env.src (i + d)
  | Read (s, d) -> fun env i -> Array.unsafe_get (Array.unsafe_get env.aux s) (i + d)
  | Code f -> f

let compile_tree (k : Kernel.t) ~strides ~aux_slot =
  let input = k.Kernel.input.Tensor.name in
  let bindings = k.Kernel.bindings in
  let rec go (e : Expr.t) =
    match e with
    | Fconst x -> Const x
    | Iconst n -> Const (float_of_int n)
    | Param name -> (
        match List.assoc_opt name bindings with
        | Some v -> Const v
        | None ->
            (* unbound: raise Expr.eval's error when a point is evaluated *)
            Code (fun _ _ -> Expr.eval ~bindings ~load:(fun _ -> 0.0) ~var:(fun _ -> 0.0) e))
    | Var name -> (
        let rec find d = function
          | [] -> None
          | v :: rest -> if String.equal v name then Some d else find (d + 1) rest
        in
        match find 0 k.Kernel.index_vars with
        | Some d -> Code (fun env _ -> float_of_int (Array.unsafe_get env.coord d))
        | None -> Code (fun _ _ -> invalid_arg (Printf.sprintf "Interp: unknown loop var %s" name)))
    | Access a ->
        let slot = if String.equal a.Expr.tensor input then -1 else aux_slot a.Expr.tensor in
        Read (slot, flat_delta strides a.Expr.offsets)
    | Unop (op, a) -> (
        match (op, go a) with
        | _, Const x -> Const (Expr.apply_unop op x)
        | Expr.Neg, a ->
            let fa = code a in
            Code (fun env i -> -.fa env i)
        | _, a ->
            let fa = code a in
            Code (fun env i -> Expr.apply_unop op (fa env i)))
    | Binop (op, a, b) -> (
        match (op, go a, go b) with
        | _, Const x, Const y -> Const (Expr.apply_binop op x y)
        (* c * x on the input grid: the product of every tap. *)
        | Expr.Mul, Const c, Read (-1, d) ->
            Code (fun env i -> c *. Array.unsafe_get env.src (i + d))
        | Expr.Mul, Read (-1, d), Const c ->
            Code (fun env i -> Array.unsafe_get env.src (i + d) *. c)
        | Expr.Add, a, b ->
            let fa = code a and fb = code b in
            Code (fun env i -> fa env i +. fb env i)
        | Expr.Sub, a, b ->
            let fa = code a and fb = code b in
            Code (fun env i -> fa env i -. fb env i)
        | Expr.Mul, a, b ->
            let fa = code a and fb = code b in
            Code (fun env i -> fa env i *. fb env i)
        | Expr.Div, a, b ->
            let fa = code a and fb = code b in
            Code (fun env i -> fa env i /. fb env i)
        | _, a, b ->
            let fa = code a and fb = code b in
            Code (fun env i -> Expr.apply_binop op (fa env i) (fb env i)))
    | Call (name, args) -> (
        let nodes = List.map go args in
        match Expr.call name (List.map (function Const x -> x | _ -> raise Exit) nodes) with
        | v -> Const v
        | exception (Exit | Invalid_argument _) ->
            let fs = List.map code nodes in
            Code (fun env i -> Expr.call name (List.map (fun f -> f env i) fs)))
  in
  code (go k.Kernel.expr)

let compile ?(trace = Msc_trace.disabled) kernel ~geometry:(g : Grid.t) =
  let ts0 = Msc_trace.begin_span trace in
  if Kernel.ndim kernel <> Grid.ndim g then
    invalid_arg "Interp.compile: rank mismatch";
  if kernel.Kernel.input.Tensor.shape <> g.Grid.shape then
    invalid_arg "Interp.compile: shape mismatch";
  let aux_names = Kernel.aux_reads kernel in
  let aux_slot name =
    let rec find s = function
      | [] -> assert false
      | n :: rest -> if String.equal n name then s else find (s + 1) rest
    in
    find 0 aux_names
  in
  let kr = Kernel.radius kernel in
  let t =
    {
      eval = compile_tree kernel ~strides:g.Grid.strides ~aux_slot;
      aux_names = Array.of_list aux_names;
      shape = g.Grid.shape;
      halo = g.Grid.halo;
      range_slack = Array.mapi (fun d h -> h - kr.(d)) g.Grid.halo;
    }
  in
  Msc_trace.end_span trace "interp.compile" ts0;
  Msc_trace.add trace "interp.kernel_points" (float_of_int (Kernel.points kernel));
  t

(* {2 Validation} *)

(* Shape and halo fix the strides, so equal shape and halo is equal
   geometry: the flat indices the sweep computes are valid in the grid. *)
let check_geometry t name (g : Grid.t) =
  if g.Grid.shape <> t.shape || g.Grid.halo <> t.halo then
    invalid_arg (Printf.sprintf "Interp: %s grid differs from compiled geometry" name)

let check_grids ?(aux = []) t ~(src : Grid.t) ~(dst : Grid.t) =
  check_geometry t "src" src;
  check_geometry t "dst" dst;
  if src.Grid.data == dst.Grid.data then invalid_arg "Interp: src aliases dst";
  Array.iter
    (fun name ->
      match List.assoc_opt name aux with
      | Some g -> check_geometry t ("aux " ^ name) g
      | None ->
          invalid_arg
            (Printf.sprintf "Interp: kernel reads aux grid %s but it was not supplied" name))
    t.aux_names

let check_range t ~lo ~hi =
  let nd = Array.length t.shape in
  if Array.length lo <> nd || Array.length hi <> nd then
    invalid_arg "Interp: range rank mismatch";
  Array.iteri
    (fun d l ->
      if l < -t.range_slack.(d) || hi.(d) > t.shape.(d) + t.range_slack.(d) then
        invalid_arg "Interp: range out of bounds")
    lo

let check_state ~(src : Grid.t) ~(dst : Grid.t) =
  if src.Grid.shape <> dst.Grid.shape || src.Grid.halo <> dst.Grid.halo then
    invalid_arg "Interp: State term grid differs from the destination geometry"

(* {2 Sweeps} *)

(* Row walker over [lo, hi): sets the outer coordinates of [coord] and
   invokes [row base len] for each innermost row, where [base] is the flat
   index of its first element (the row callback owns [coord]'s last
   entry). The innermost dimension is contiguous (stride 1 by
   construction). *)
let iter_rows ~halo ~strides ~coord ~lo ~hi row =
  let last = Array.length lo - 1 in
  let row_len = hi.(last) - lo.(last) in
  if row_len > 0 then begin
    let rec go d base =
      if d = last then row (base + ((lo.(last) + halo.(last)) * strides.(last))) row_len
      else
        for k = lo.(d) to hi.(d) - 1 do
          coord.(d) <- k;
          go (d + 1) (base + ((k + halo.(d)) * strides.(d)))
        done
    in
    go 0 0
  end

(* A State term is the tree that reads its source at the point. *)
let read_src env i = Array.unsafe_get env.src i

(* Per term: its scale, its value at a flat index against the term's own
   [env], and its slot count in the concatenated aux layout. Each point
   folds the terms in order, the Backend.sweep_fn fold the JIT emits: the
   first term seeds [acc] (unscaled when its scale is 1.0), later terms
   add [scale * v], and [dst] is written once. *)
let compile_sweep ~geometry:(g : Grid.t) terms =
  let terms =
    Array.of_list
      (List.map
         (function
           | Backend.Sweep_state { scale } -> (scale, read_src, 0)
           | Backend.Sweep_kernel { scale; kernel; halo } ->
               if halo <> g.Grid.halo then
                 invalid_arg "Interp.compile_sweep: term halo differs from the geometry";
               let t = compile kernel ~geometry:g in
               (scale, t.eval, Array.length t.aux_names))
         terms)
  in
  let n = Array.length terms in
  if n = 0 then invalid_arg "Interp.compile_sweep: empty sweep";
  let scales = Array.map (fun (s, _, _) -> s) terms in
  let evals = Array.map (fun (_, e, _) -> e) terms in
  let aux_len = Array.map (fun (_, _, k) -> k) terms in
  let aux_off = Array.make n 0 in
  for t = 1 to n - 1 do
    aux_off.(t) <- aux_off.(t - 1) + aux_len.(t - 1)
  done;
  let s0 = scales.(0) and eval0 = evals.(0) in
  let seed_scaled = s0 <> 1.0 in
  let halo = g.Grid.halo and strides = g.Grid.strides in
  let last = Grid.ndim g - 1 in
  fun srcs dst aux lo hi ->
    let coord = Array.copy lo in
    let envs =
      Array.init n (fun t ->
          { src = srcs.(t); aux = Array.sub aux aux_off.(t) aux_len.(t); coord })
    in
    let env0 = envs.(0) and l0 = lo.(last) in
    iter_rows ~halo ~strides ~coord ~lo ~hi (fun base len ->
        for c = 0 to len - 1 do
          let i = base + c in
          Array.unsafe_set coord last (l0 + c);
          let v = eval0 env0 i in
          let acc = ref (if seed_scaled then s0 *. v else v) in
          for t = 1 to n - 1 do
            acc :=
              !acc
              +. Array.unsafe_get scales t
                 *. (Array.unsafe_get evals t) (Array.unsafe_get envs t) i
          done;
          Array.unsafe_set dst i !acc
        done)
