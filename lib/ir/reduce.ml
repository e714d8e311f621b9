type op = Sum | Dot | Norm2 | Max_abs

let all = [ Sum; Dot; Norm2; Max_abs ]

let to_string = function
  | Sum -> "sum"
  | Dot -> "dot"
  | Norm2 -> "norm2"
  | Max_abs -> "max_abs"

let of_string = function
  | "sum" -> Some Sum
  | "dot" -> Some Dot
  | "norm2" -> Some Norm2
  | "max_abs" -> Some Max_abs
  | _ -> None

let pp fmt op = Format.pp_print_string fmt (to_string op)
let arity = function Dot -> 2 | Sum | Norm2 | Max_abs -> 1
let code = function Sum -> 0 | Dot -> 1 | Norm2 -> 2 | Max_abs -> 3
let identity (_ : op) = 0.

let point op acc v =
  match op with
  | Sum -> acc +. v
  | Dot -> invalid_arg "Reduce.point: Dot needs two grids (use point2)"
  | Norm2 -> acc +. (v *. v)
  | Max_abs ->
      let v = Float.abs v in
      if v > acc then v else acc

let point2 op acc a b =
  match op with Dot -> acc +. (a *. b) | Sum | Norm2 | Max_abs -> point op acc a

let finalize op v = match op with Norm2 -> sqrt v | Sum | Dot | Max_abs -> v

(* One monomorphic loop per combine, so no fold calls a closure or boxes
   a float: the additive operators add, [Max_abs] keeps the larger
   ([if b > a then b else a], NaN operands included). *)
let tree_combine op a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Reduce.tree_combine: empty partials";
  let max_abs = match op with Max_abs -> true | Sum | Dot | Norm2 -> false in
  let stride = ref 1 in
  while !stride < n do
    let s = !stride in
    let i = ref 0 in
    if max_abs then
      while !i + s < n do
        let b = a.(!i + s) in
        if b > a.(!i) then a.(!i) <- b;
        i := !i + (2 * s)
      done
    else
      while !i + s < n do
        a.(!i) <- a.(!i) +. a.(!i + s);
        i := !i + (2 * s)
      done;
    stride := 2 * s
  done;
  a.(0)
