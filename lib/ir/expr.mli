(** Expression IR (paper Table 2: AssignExpr / OperatorExpr / CallFuncExpr /
    IndexExpr).

    A kernel body is a single expression tree giving the value written to the
    output point; tensor reads are [Access] nodes carrying constant spatial
    offsets relative to the output point (the IndexExpr of the paper is the
    offset vector). *)

type unop = Neg | Abs | Sqrt | Exp | Sin | Cos

type binop = Add | Sub | Mul | Div | Min | Max

type access = {
  tensor : string;  (** name of the tensor being read *)
  offsets : int array;  (** constant offset per dimension, outermost first *)
}

type t =
  | Fconst of float
  | Iconst of int
  | Param of string  (** named scalar coefficient, bound at execution time *)
  | Var of string  (** loop index variable (used by index arithmetic) *)
  | Access of access
  | Unop of unop * t
  | Binop of binop * t * t
  | Call of string * t list  (** external function call (CallFuncExpr) *)

(** {1 Construction helpers} *)

val f : float -> t
val i : int -> t
val p : string -> t
val read : string -> int array -> t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val neg : t -> t

(** {1 Analysis} *)

val accesses : t -> access list
(** All [Access] nodes, in evaluation order (duplicates preserved). *)

val distinct_accesses : t -> access list
(** Deduplicated accesses, order of first occurrence. *)

val flops : t -> int
(** Number of arithmetic operations per evaluated point; counts [+ - * /],
    min/max and unary arithmetic as one each, matching Table 4's "Ops" column
    convention of counting {b +}, {b -}, {b ×}. *)

val params : t -> string list
(** Distinct [Param] names, order of first occurrence. *)

type tap = { coeff : float; offsets : int array }

val linear_taps : bindings:(string * float) list -> t -> tap list option
(** [linear_taps ~bindings e] decomposes [e] as [sum_i coeff_i * T\[p +
    off_i\]] when [e] is a linear combination of single-tensor accesses with
    constant/parameter coefficients; taps with the same offset are merged.
    Returns [None] for non-linear kernels (those fall back to tree
    interpretation). *)

val eval :
  bindings:(string * float) list ->
  load:(access -> float) ->
  var:(string -> float) ->
  t -> float
(** Generic tree evaluation. [load] resolves tensor reads; [var] resolves loop
    variables; calls support ["pow"], ["hypot"], ["fma"] and 1-argument
    math functions by name. @raise Invalid_argument on an unknown call or
    unbound parameter. *)

val apply_unop : unop -> float -> float
val apply_binop : binop -> float -> float -> float

val call : string -> float list -> float
(** The arithmetic {!eval} applies at a [Unop], [Binop] and [Call] node.
    @raise Invalid_argument on an unknown call. *)

val constant : bindings:(string * float) list -> t -> float option
(** [Some v] when [e] reads no tensor and no loop variable and evaluates:
    [v] is exactly what {!eval} computes for it. [None] otherwise
    (including unbound parameters and unknown calls). *)

val map_expr : (t -> t option) -> t -> t
(** Top-down rewrite: when [fn] returns [Some e'] the node is replaced by
    [e'] verbatim (no recursion into the replacement); on [None] the walk
    recurses into the children. Leaves unmatched nodes untouched. *)

val rename_tensor : from:string -> to_:string -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val to_c : index:(access -> string) -> t -> string
(** Render as a C expression, [index] supplying the C lvalue for an access. *)

val equal : t -> t -> bool
