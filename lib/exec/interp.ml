open Msc_ir

(* What one term of a sweep evaluates against: its input grid's data, its
   aux arrays in [aux_names] order, each array's base shift (a window holds
   a slab of the padded box: full-geometry flat index [i] lives at
   [i - shift]), and the current point's interior coordinate (read by [Var]
   nodes only). Every sweep call builds its own, so pool workers sweeping
   tiles with one function share nothing mutable. *)
type env = {
  src : float array;
  src_shift : int;
  aux : float array array;
  aux_shift : int array;
  coord : int array;
}

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
  input : string;  (* the kernel's input tensor *)
  row_reach : (string * (int * int)) list;
      (* per tensor read (input and aux): the least and greatest
         dimension-0 offset of its accesses — the rows a window operand
         must hold around a range *)
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
  | Read (-1, d) -> fun env i -> Array.unsafe_get env.src (i + d - env.src_shift)
  | Read (s, d) ->
      fun env i ->
        Array.unsafe_get (Array.unsafe_get env.aux s)
          (i + d - Array.unsafe_get env.aux_shift s)
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
            Code (fun env i -> c *. Array.unsafe_get env.src (i + d - env.src_shift))
        | Expr.Mul, Read (-1, d), Const c ->
            Code (fun env i -> Array.unsafe_get env.src (i + d - env.src_shift) *. c)
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
  let row_reach =
    List.fold_left
      (fun acc (a : Expr.access) ->
        let o = a.Expr.offsets.(0) in
        match List.assoc_opt a.Expr.tensor acc with
        | Some (l, h) ->
            (a.Expr.tensor, (min l o, max h o)) :: List.remove_assoc a.Expr.tensor acc
        | None -> (a.Expr.tensor, (o, o)) :: acc)
      [] (Expr.distinct_accesses kernel.Kernel.expr)
  in
  let t =
    {
      eval = compile_tree kernel ~strides:g.Grid.strides ~aux_slot;
      aux_names = Array.of_list aux_names;
      shape = g.Grid.shape;
      halo = g.Grid.halo;
      range_slack = Array.mapi (fun d h -> h - kr.(d)) g.Grid.halo;
      input = kernel.Kernel.input.Tensor.name;
      row_reach;
    }
  in
  Msc_trace.end_span trace "interp.compile" ts0;
  Msc_trace.add trace "interp.kernel_points" (float_of_int (Kernel.points kernel));
  t

(* {2 Validation} *)

type placement = { mutable first_row : int; windows : Grid.t array }

let no_windows = { first_row = 0; windows = [||] }

(* Physical membership, as a loop: it runs for every operand of every
   task, and a closure would allocate. *)
let is_window placement g =
  let n = Array.length placement.windows in
  let i = ref 0 in
  while !i < n && placement.windows.(!i) != g do
    incr i
  done;
  !i < n

(* A window is a slab of a geometry along dimension 0: the same extents and
   halo in every other dimension and no halo in dimension 0, so it has the
   geometry's strides and holds whole padded rows. *)
let slab_of ~shape ~halo (g : Grid.t) =
  Array.length g.Grid.shape = Array.length shape
  && g.Grid.halo.(0) = 0
  && Array.for_all Fun.id
       (Array.mapi
          (fun d n -> d = 0 || (n = shape.(d) && g.Grid.halo.(d) = halo.(d)))
          g.Grid.shape)

(* Shape and halo fix the strides, so equal shape and halo is equal
   geometry: the flat indices the sweep computes are valid in the grid. *)
let check_geometry placement t name (g : Grid.t) =
  let whole = g.Grid.shape = t.shape && g.Grid.halo = t.halo in
  if not (whole || (is_window placement g && slab_of ~shape:t.shape ~halo:t.halo g)) then
    invalid_arg (Printf.sprintf "Interp: %s grid differs from compiled geometry" name)

(* Loops, not iterators, in every check below: they run per task, and an
   iterator's closure would allocate. *)
let check_grids_in placement ~aux t ~(src : Grid.t) ~(dst : Grid.t) =
  check_geometry placement t "src" src;
  check_geometry placement t "dst" dst;
  if src.Grid.data == dst.Grid.data then invalid_arg "Interp: src aliases dst";
  for i = 0 to Array.length t.aux_names - 1 do
    let name = t.aux_names.(i) in
    match List.assoc_opt name aux with
    | Some g -> check_geometry placement t ("aux " ^ name) g
    | None ->
        invalid_arg
          (Printf.sprintf "Interp: kernel reads aux grid %s but it was not supplied" name)
  done

let check_grids ?(aux = []) t ~src ~dst = check_grids_in no_windows ~aux t ~src ~dst

let check_range t ~lo ~hi =
  let nd = Array.length t.shape in
  if Array.length lo <> nd || Array.length hi <> nd then
    invalid_arg "Interp: range rank mismatch";
  for d = 0 to nd - 1 do
    if lo.(d) < -t.range_slack.(d) || hi.(d) > t.shape.(d) + t.range_slack.(d) then
      invalid_arg "Interp: range out of bounds"
  done

(* Interior rows [a, b] of dimension 0 that an access touches must lie in
   the rows a window operand holds; whole grids are the padded-box check's
   business. *)
let check_rows placement what (g : Grid.t) a b =
  if is_window placement g && (a < placement.first_row || b >= placement.first_row + g.Grid.shape.(0))
  then
    invalid_arg
      (Printf.sprintf "Interp: %s rows [%d, %d] outside its window [%d, %d)" what a b
         placement.first_row (placement.first_row + g.Grid.shape.(0)))

let nonempty lo hi =
  let i = ref 0 in
  while !i < Array.length lo && lo.(!i) < hi.(!i) do
    incr i
  done;
  !i = Array.length lo

(* The rows of [g] a read of tensor [name] over [lo, hi) touches. *)
let check_reads placement t what name g ~lo ~hi =
  match List.assoc_opt name t.row_reach with
  | Some (l, h) -> check_rows placement what g (lo.(0) + l) (hi.(0) - 1 + h)
  | None -> ()

let rec check_aux_reads placement t ~lo ~hi = function
  | [] -> ()
  | (name, g) :: rest ->
      check_reads placement t ("aux " ^ name) name g ~lo ~hi;
      check_aux_reads placement t ~lo ~hi rest

let check_kernel_window placement ~aux t ~src ~dst ~lo ~hi =
  check_grids_in placement ~aux t ~src ~dst;
  check_range t ~lo ~hi;
  if Array.length placement.windows > 0 && nonempty lo hi then begin
    check_aux_reads placement t ~lo ~hi aux;
    check_reads placement t "src" t.input src ~lo ~hi;
    check_rows placement "dst" dst lo.(0) (hi.(0) - 1)
  end

let check_state ~(src : Grid.t) ~(dst : Grid.t) =
  if src.Grid.shape <> dst.Grid.shape || src.Grid.halo <> dst.Grid.halo then
    invalid_arg "Interp: State term grid differs from the destination geometry"

let check_state_window placement ~(src : Grid.t) ~(dst : Grid.t) ~lo ~hi =
  match (is_window placement src, is_window placement dst) with
  | false, false -> check_state ~src ~dst
  | src_w, dst_w ->
      (* The whole operand (or either window, when both are) fixes the
         layout the other must be a slab of. *)
      let geo = if src_w then dst else src in
      let slab g = slab_of ~shape:geo.Grid.shape ~halo:geo.Grid.halo g in
      if (src_w && not (slab src)) || (dst_w && not (slab dst)) then
        invalid_arg "Interp: State term window differs from the destination layout";
      if src.Grid.data == dst.Grid.data then invalid_arg "Interp: src aliases dst";
      if nonempty lo hi then begin
        check_rows placement "src" src lo.(0) (hi.(0) - 1);
        check_rows placement "dst" dst lo.(0) (hi.(0) - 1)
      end

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
let read_src env i = Array.unsafe_get env.src (i - env.src_shift)

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
  fun ?(shifts = [||]) srcs dst aux lo hi ->
    let shift k = if Array.length shifts = 0 then 0 else shifts.(k) in
    let coord = Array.copy lo in
    let envs =
      Array.init n (fun t ->
          {
            src = srcs.(t);
            src_shift = shift t;
            aux = Array.sub aux aux_off.(t) aux_len.(t);
            aux_shift = Array.init aux_len.(t) (fun j -> shift (n + 1 + aux_off.(t) + j));
            coord;
          })
    in
    let dst_shift = shift n in
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
          Array.unsafe_set dst (i - dst_shift) !acc
        done)
