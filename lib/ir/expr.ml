type unop = Neg | Abs | Sqrt | Exp | Sin | Cos
type binop = Add | Sub | Mul | Div | Min | Max

type access = { tensor : string; offsets : int array }

type t =
  | Fconst of float
  | Iconst of int
  | Param of string
  | Var of string
  | Access of access
  | Unop of unop * t
  | Binop of binop * t * t
  | Call of string * t list

let f x = Fconst x
let i n = Iconst n
let p name = Param name
let read tensor offsets = Access { tensor; offsets }

let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let ( / ) a b = Binop (Div, a, b)
let neg a = Unop (Neg, a)

let rec fold acc fn e =
  let acc = fn acc e in
  match e with
  | Fconst _ | Iconst _ | Param _ | Var _ | Access _ -> acc
  | Unop (_, a) -> fold acc fn a
  | Binop (_, a, b) -> fold (fold acc fn a) fn b
  | Call (_, args) -> List.fold_left (fun acc a -> fold acc fn a) acc args

let accesses e =
  List.rev (fold [] (fun acc e -> match e with Access a -> a :: acc | _ -> acc) e)

let access_equal a b = String.equal a.tensor b.tensor && a.offsets = b.offsets

let distinct_accesses e =
  let seen = ref [] in
  List.iter
    (fun a -> if not (List.exists (access_equal a) !seen) then seen := a :: !seen)
    (accesses e);
  List.rev !seen

let flops e =
  fold 0
    (fun acc e ->
      match e with
      | Binop _ -> Stdlib.( + ) acc 1
      | Unop ((Neg | Abs | Sqrt | Exp | Sin | Cos), _) -> Stdlib.( + ) acc 1
      | Fconst _ | Iconst _ | Param _ | Var _ | Access _ | Call _ -> acc)
    e

let params e =
  let seen = ref [] in
  let collect acc e =
    (match e with
    | Param name -> if not (List.mem name !seen) then seen := name :: !seen
    | Fconst _ | Iconst _ | Var _ | Access _ | Unop _ | Binop _ | Call _ -> ());
    acc
  in
  let (_ : unit) = fold () collect e in
  List.rev !seen

type tap = { coeff : float; offsets : int array }

(* Linear decomposition: value = constant + sum of (coeff, access).
   We track the constant part to reject affine-but-not-linear kernels
   (a nonzero additive constant is not expressible as taps). *)
let linear_taps ~bindings e =
  let lookup name = List.assoc_opt name bindings in
  let module M = struct
    exception Not_linear
  end in
  let rec go e : float * (float * access) list =
    match e with
    | Fconst x -> (x, [])
    | Iconst n -> (float_of_int n, [])
    | Param name -> (
        match lookup name with Some v -> (v, []) | None -> raise M.Not_linear)
    | Var _ -> raise M.Not_linear
    | Access a -> (0.0, [ (1.0, a) ])
    | Unop (Neg, a) ->
        let c, taps = go a in
        (-.c, List.map (fun (k, acc) -> (-.k, acc)) taps)
    | Unop ((Abs | Sqrt | Exp | Sin | Cos), _) -> raise M.Not_linear
    | Binop (Add, a, b) ->
        let ca, ta = go a and cb, tb = go b in
        (ca +. cb, ta @ tb)
    | Binop (Sub, a, b) ->
        let ca, ta = go a and cb, tb = go b in
        (ca -. cb, ta @ List.map (fun (k, acc) -> (-.k, acc)) tb)
    | Binop (Mul, a, b) -> (
        let ca, ta = go a and cb, tb = go b in
        match (ta, tb) with
        | [], [] -> (ca *. cb, [])
        | [], taps -> (ca *. cb, List.map (fun (k, acc) -> (ca *. k, acc)) taps)
        | taps, [] -> (ca *. cb, List.map (fun (k, acc) -> (cb *. k, acc)) taps)
        | _ :: _, _ :: _ -> raise M.Not_linear)
    | Binop (Div, a, b) -> (
        let ca, ta = go a in
        match go b with
        | cb, [] when cb <> 0.0 ->
            (ca /. cb, List.map (fun (k, acc) -> (k /. cb, acc)) ta)
        | _ -> raise M.Not_linear)
    | Binop ((Min | Max), _, _) -> raise M.Not_linear
    | Call _ -> raise M.Not_linear
  in
  match go e with
  | exception M.Not_linear -> None
  | constant, raw ->
      if constant <> 0.0 then None
      else begin
        (* Merge taps sharing an offset (e.g. B[i] appearing twice). *)
        let merged = ref [] in
        List.iter
          (fun (k, acc) ->
            match
              List.find_opt (fun (_, acc') -> access_equal acc acc') !merged
            with
            | Some (k', _) ->
                merged :=
                  List.map
                    (fun (k0, acc') ->
                      if access_equal acc acc' then (k0 +. k, acc') else (k0, acc'))
                    !merged;
                ignore k'
            | None -> merged := !merged @ [ (k, acc) ])
          raw;
        Some
          (List.map
             (fun (k, (acc : access)) -> { coeff = k; offsets = acc.offsets })
             !merged)
      end

let apply_unop op x =
  match op with
  | Neg -> -.x
  | Abs -> Float.abs x
  | Sqrt -> sqrt x
  | Exp -> exp x
  | Sin -> sin x
  | Cos -> cos x

let apply_binop op a b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> a /. b
  | Min -> Float.min a b
  | Max -> Float.max a b

let call name args =
  match (name, args) with
  | "pow", [ a; b ] -> Float.pow a b
  | "hypot", [ a; b ] -> Float.hypot a b
  | "fma", [ a; b; c ] -> Float.fma a b c
  | "sqrt", [ a ] -> sqrt a
  | "exp", [ a ] -> exp a
  | "log", [ a ] -> log a
  | "sin", [ a ] -> sin a
  | "cos", [ a ] -> cos a
  | "tanh", [ a ] -> tanh a
  | "fabs", [ a ] -> Float.abs a
  | _ -> invalid_arg (Printf.sprintf "Expr.eval: unknown call %s/%d" name (List.length args))

let eval ~bindings ~load ~var e =
  let rec go = function
    | Fconst x -> x
    | Iconst n -> float_of_int n
    | Param name -> (
        match List.assoc_opt name bindings with
        | Some v -> v
        | None -> invalid_arg (Printf.sprintf "Expr.eval: unbound parameter %s" name))
    | Var name -> var name
    | Access a -> load a
    | Unop (op, a) -> apply_unop op (go a)
    | Binop (op, a, b) -> apply_binop op (go a) (go b)
    | Call (name, args) -> call name (List.map go args)
  in
  go e

let constant ~bindings e =
  let exception Reads in
  let reads _ = raise Reads in
  match eval ~bindings ~load:reads ~var:reads e with
  | v -> Some v
  | exception (Reads | Invalid_argument _) -> None

let rec map_expr fn e =
  match fn e with
  | Some e' -> e'
  | None -> (
      match e with
      | Fconst _ | Iconst _ | Param _ | Var _ | Access _ -> e
      | Unop (op, a) -> Unop (op, map_expr fn a)
      | Binop (op, a, b) -> Binop (op, map_expr fn a, map_expr fn b)
      | Call (name, args) -> Call (name, List.map (map_expr fn) args))

let rename_tensor ~from ~to_ e =
  map_expr
    (function
      | Access a when String.equal a.tensor from -> Some (Access { a with tensor = to_ })
      | _ -> None)
    e

let unop_name = function
  | Neg -> "-"
  | Abs -> "fabs"
  | Sqrt -> "sqrt"
  | Exp -> "exp"
  | Sin -> "sin"
  | Cos -> "cos"

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Min -> "min"
  | Max -> "max"

let pp_offsets ppf offsets =
  Format.pp_print_string ppf "[";
  Array.iteri
    (fun k d ->
      if k > 0 then Format.pp_print_string ppf ",";
      Format.fprintf ppf "%+d" d)
    offsets;
  Format.pp_print_string ppf "]"

let rec pp ppf = function
  | Fconst x -> Format.fprintf ppf "%g" x
  | Iconst n -> Format.fprintf ppf "%d" n
  | Param name -> Format.pp_print_string ppf name
  | Var name -> Format.pp_print_string ppf name
  | Access a -> Format.fprintf ppf "%s%a" a.tensor pp_offsets a.offsets
  | Unop (Neg, a) -> Format.fprintf ppf "(-%a)" pp a
  | Unop (op, a) -> Format.fprintf ppf "%s(%a)" (unop_name op) pp a
  | Binop ((Min | Max) as op, a, b) ->
      Format.fprintf ppf "%s(%a, %a)" (binop_name op) pp a pp b
  | Binop (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (binop_name op) pp b
  | Call (name, args) ->
      Format.fprintf ppf "%s(%a)" name
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp)
        args

let to_string e = Format.asprintf "%a" pp e

let to_c ~index e =
  let buf = Buffer.create 256 in
  let rec go = function
    | Fconst x ->
        (* Keep full double precision and force a C floating literal. *)
        let s = Printf.sprintf "%.17g" x in
        Buffer.add_string buf
          (if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
           then s
           else s ^ ".0")
    | Iconst n -> Buffer.add_string buf (string_of_int n)
    | Param name | Var name -> Buffer.add_string buf name
    | Access a -> Buffer.add_string buf (index a)
    | Unop (Neg, a) ->
        Buffer.add_string buf "(-";
        go a;
        Buffer.add_char buf ')'
    | Unop (op, a) ->
        Buffer.add_string buf (unop_name op);
        Buffer.add_char buf '(';
        go a;
        Buffer.add_char buf ')'
    | Binop (Min, a, b) ->
        Buffer.add_string buf "fmin(";
        go a;
        Buffer.add_string buf ", ";
        go b;
        Buffer.add_char buf ')'
    | Binop (Max, a, b) ->
        Buffer.add_string buf "fmax(";
        go a;
        Buffer.add_string buf ", ";
        go b;
        Buffer.add_char buf ')'
    | Binop (op, a, b) ->
        Buffer.add_char buf '(';
        go a;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (binop_name op);
        Buffer.add_char buf ' ';
        go b;
        Buffer.add_char buf ')'
    | Call (name, args) ->
        Buffer.add_string buf name;
        Buffer.add_char buf '(';
        List.iteri
          (fun k a ->
            if k > 0 then Buffer.add_string buf ", ";
            go a)
          args;
        Buffer.add_char buf ')'
  in
  go e;
  Buffer.contents buf

let rec equal a b =
  match (a, b) with
  | Fconst x, Fconst y -> x = y
  | Iconst x, Iconst y -> Int.equal x y
  | Param x, Param y | Var x, Var y -> String.equal x y
  | Access x, Access y -> access_equal x y
  | Unop (op, x), Unop (op', y) -> op = op' && equal x y
  | Binop (op, x1, x2), Binop (op', y1, y2) -> op = op' && equal x1 y1 && equal x2 y2
  | Call (n, xs), Call (n', ys) ->
      String.equal n n' && List.length xs = List.length ys && List.for_all2 equal xs ys
  | ( ( Fconst _ | Iconst _ | Param _ | Var _ | Access _ | Unop _ | Binop _
      | Call _ ),
      _ ) ->
      false
