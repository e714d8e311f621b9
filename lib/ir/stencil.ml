type expr =
  | Apply of Kernel.t * int
  | State of int
  | Scale of float * expr
  | Sum of expr * expr
  | Diff of expr * expr

type t = { name : string; grid : Tensor.t; expr : expr }

let rec fold_expr acc fn e =
  let acc = fn acc e in
  match e with
  | Apply _ | State _ -> acc
  | Scale (_, a) -> fold_expr acc fn a
  | Sum (a, b) | Diff (a, b) -> fold_expr (fold_expr acc fn a) fn b

let time_offsets t =
  List.sort_uniq compare
    (fold_expr [] (fun acc e ->
         match e with
         | Apply (_, dt) | State dt -> dt :: acc
         | Scale _ | Sum _ | Diff _ -> acc)
       t.expr)

let time_window t = List.fold_left max 1 (time_offsets t)

type term = { scale : float; kernel : Kernel.t option; dt : int }

let terms t =
  let rec go scale = function
    | Apply (k, dt) -> [ { scale; kernel = Some k; dt } ]
    | State dt -> [ { scale; kernel = None; dt } ]
    | Scale (c, a) -> go (scale *. c) a
    | Sum (a, b) -> go scale a @ go scale b
    | Diff (a, b) -> go scale a @ go (-.scale) b
  in
  go 1.0 t.expr

let rec map_kernels f = function
  | Apply (k, dt) -> Apply (f k, dt)
  | State _ as e -> e
  | Scale (c, a) -> Scale (c, map_kernels f a)
  | Sum (a, b) -> Sum (map_kernels f a, map_kernels f b)
  | Diff (a, b) -> Diff (map_kernels f a, map_kernels f b)

let kernels t =
  let seen = ref [] in
  let (_ : unit list) =
    fold_expr [] (fun acc e ->
        (match e with
        | Apply (k, _) ->
            if not (List.exists (fun k' -> String.equal k'.Kernel.name k.Kernel.name) !seen)
            then seen := !seen @ [ k ]
        | State _ | Scale _ | Sum _ | Diff _ -> ());
        acc)
      t.expr
  in
  !seen

let validate t =
  List.iter
    (fun dt ->
      if dt < 1 then invalid_arg (Printf.sprintf "Stencil %s: time offset %d < 1" t.name dt))
    (time_offsets t);
  List.iter
    (fun k ->
      if not (String.equal k.Kernel.input.Tensor.name t.grid.Tensor.name) then
        invalid_arg
          (Printf.sprintf "Stencil %s: kernel %s reads %s, not the stencil grid %s"
             t.name k.Kernel.name k.Kernel.input.Tensor.name t.grid.Tensor.name))
    (kernels t);
  if t.grid.Tensor.time_window < time_window t then
    invalid_arg
      (Printf.sprintf
         "Stencil %s: needs %d past states but grid %s declares a time window of %d"
         t.name (time_window t) t.grid.Tensor.name t.grid.Tensor.time_window);
  t

let make ~name ~grid expr = validate { name; grid; expr }

let of_kernel k =
  make ~name:k.Kernel.name ~grid:k.Kernel.input (Apply (k, 1))

let reshape ?shape ?halo t =
  let rebuild (x : Tensor.t) =
    {
      x with
      Tensor.shape = Array.copy (Option.value shape ~default:x.Tensor.shape);
      halo = Array.copy (Option.value halo ~default:x.Tensor.halo);
    }
  in
  let grid = rebuild t.grid in
  let rebuild_kernel (k : Kernel.t) =
    Kernel.make ~bindings:k.Kernel.bindings ~aux:(List.map rebuild k.Kernel.aux)
      ~name:k.Kernel.name ~input:grid ~index_vars:k.Kernel.index_vars k.Kernel.expr
  in
  make ~name:t.name ~grid (map_kernels rebuild_kernel t.expr)

let flops_per_point t =
  fold_expr 0
    (fun acc e ->
      match e with
      | Apply (k, _) -> acc + Kernel.flops_per_point k
      | State _ -> acc
      | Scale _ -> acc + 1
      | Sum _ | Diff _ -> acc + 1)
    t.expr

let read_bytes_per_point t =
  (* Distinct (time offset, spatial offset) pairs. *)
  let reads = ref [] in
  let add key = if not (List.mem key !reads) then reads := key :: !reads in
  let (_ : unit list) =
    fold_expr [] (fun acc e ->
        (match e with
        | Apply (k, dt) ->
            List.iter
              (fun (a : Expr.access) -> add (dt, Array.to_list a.offsets))
              (Expr.distinct_accesses k.Kernel.expr)
        | State dt -> add (dt, List.init (Tensor.ndim t.grid) (fun _ -> 0))
        | Scale _ | Sum _ | Diff _ -> ());
        acc)
      t.expr
  in
  List.length !reads * Dtype.size_bytes t.grid.Tensor.dtype

let write_bytes_per_point t = Dtype.size_bytes t.grid.Tensor.dtype

let radius t =
  let rank = Tensor.ndim t.grid in
  let r = Array.make rank 0 in
  List.iter
    (fun k ->
      let rk = Kernel.radius k in
      Array.iteri (fun d v -> r.(d) <- max r.(d) v) rk)
    (kernels t);
  r

let validate_halo t =
  let r = radius t in
  Array.iteri
    (fun d v ->
      if v > t.grid.Tensor.halo.(d) then
        invalid_arg
          (Printf.sprintf "Stencil %s: radius %d exceeds halo %d on dim %d" t.name v
             t.grid.Tensor.halo.(d) d))
    r

let rec pp_expr ppf = function
  | Apply (k, dt) -> Format.fprintf ppf "%s[t-%d]" k.Kernel.name dt
  | State dt -> Format.fprintf ppf "U[t-%d]" dt
  | Scale (c, e) -> Format.fprintf ppf "%g*(%a)" c pp_expr e
  | Sum (a, b) -> Format.fprintf ppf "(%a + %a)" pp_expr a pp_expr b
  | Diff (a, b) -> Format.fprintf ppf "(%a - %a)" pp_expr a pp_expr b

let pp ppf t =
  Format.fprintf ppf "Stencil %s on %s: Res[t] << %a" t.name t.grid.Tensor.name
    pp_expr t.expr
