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

(* [combine op] returns one of two static closures, so passing it to
   {!tree_combine} or an allreduce allocates nothing. *)
let add a b = a +. b
let max_of a b = if b > a then b else a
let combine = function Sum | Dot | Norm2 -> add | Max_abs -> max_of

let finalize op v = match op with Norm2 -> sqrt v | Sum | Dot | Max_abs -> v

let tree_combine f a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Reduce.tree_combine: empty partials";
  let stride = ref 1 in
  while !stride < n do
    let i = ref 0 in
    while !i + !stride < n do
      a.(!i) <- f a.(!i) a.(!i + !stride);
      i := !i + (2 * !stride)
    done;
    stride := 2 * !stride
  done;
  a.(0)
