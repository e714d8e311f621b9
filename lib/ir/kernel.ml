type t = {
  name : string;
  input : Tensor.t;
  aux : Tensor.t list;
  index_vars : string list;
  expr : Expr.t;
  bindings : (string * float) list;
}

let tensor_of t name =
  if String.equal name t.input.Tensor.name then Some t.input
  else List.find_opt (fun (a : Tensor.t) -> String.equal a.Tensor.name name) t.aux

let validate t =
  let rank = Tensor.ndim t.input in
  if List.length t.index_vars <> rank then
    invalid_arg
      (Printf.sprintf "Kernel %s: %d index vars for rank-%d tensor" t.name
         (List.length t.index_vars) rank);
  List.iter
    (fun (aux : Tensor.t) ->
      if aux.Tensor.shape <> t.input.Tensor.shape
         || aux.Tensor.halo <> t.input.Tensor.halo
      then
        invalid_arg
          (Printf.sprintf
             "Kernel %s: aux tensor %s must share the input's shape and halo"
             t.name aux.Tensor.name))
    t.aux;
  List.iter
    (fun (a : Expr.access) ->
      match tensor_of t a.tensor with
      | None ->
          invalid_arg
            (Printf.sprintf "Kernel %s: reads tensor %s (input is %s%s)" t.name
               a.tensor t.input.Tensor.name
               (match t.aux with
               | [] -> ""
               | aux ->
                   "; aux: "
                   ^ String.concat ","
                       (List.map (fun (x : Tensor.t) -> x.Tensor.name) aux)))
      | Some tensor ->
          if Array.length a.offsets <> rank then
            invalid_arg (Printf.sprintf "Kernel %s: access rank mismatch" t.name);
          Array.iteri
            (fun d off ->
              if abs off > tensor.Tensor.halo.(d) then
                invalid_arg
                  (Printf.sprintf
                     "Kernel %s: offset %d on dim %d exceeds halo width %d of %s"
                     t.name off d tensor.Tensor.halo.(d) tensor.Tensor.name))
            a.offsets)
    (Expr.accesses t.expr);
  List.iter
    (fun name ->
      if not (List.mem_assoc name t.bindings) then
        invalid_arg (Printf.sprintf "Kernel %s: unbound parameter %s" t.name name))
    (Expr.params t.expr);
  t

let make ?(bindings = []) ?(aux = []) ~name ~input ~index_vars expr =
  validate { name; input; aux; index_vars; expr; bindings }

let aux_tensor t name =
  List.find_opt (fun (a : Tensor.t) -> String.equal a.Tensor.name name) t.aux

let is_multi_grid t =
  List.exists
    (fun (a : Expr.access) -> not (String.equal a.Expr.tensor t.input.Tensor.name))
    (Expr.accesses t.expr)

let aux_reads t =
  List.fold_left
    (fun acc (a : Expr.access) ->
      if String.equal a.Expr.tensor t.input.Tensor.name || List.mem a.Expr.tensor acc then acc
      else acc @ [ a.Expr.tensor ])
    [] (Expr.accesses t.expr)

let ndim t = Tensor.ndim t.input

let radius t =
  let rank = ndim t in
  let r = Array.make rank 0 in
  List.iter
    (fun (a : Expr.access) ->
      Array.iteri (fun d off -> r.(d) <- max r.(d) (abs off)) a.offsets)
    (Expr.accesses t.expr);
  r

let points t = List.length (Expr.distinct_accesses t.expr)
let flops_per_point t = Expr.flops t.expr

let read_bytes_per_point t = points t * Dtype.size_bytes t.input.Tensor.dtype
let write_bytes_per_point t = Dtype.size_bytes t.input.Tensor.dtype

let taps t =
  if is_multi_grid t then None else Expr.linear_taps ~bindings:t.bindings t.expr

let rename t name = { t with name }

let pp ppf t =
  Format.fprintf ppf "Kernel %s (%s) over %s:@ %a" t.name
    (String.concat "," t.index_vars)
    t.input.Tensor.name Expr.pp t.expr
