(** Grid reductions: the IR form behind residual norms, dot products and
    convergence tests.

    A reduction folds every interior point of one grid (or a pointwise pair
    of two grids) into a single scalar. The four operators cover the
    matrix-free solver loop: [Sum] and [Dot] for Krylov recurrences,
    [Norm2] (the Euclidean norm) for residual monitoring, [Max_abs] (the
    max norm) for error bounds.

    {b Determinism contract.} Floating-point reduction order is part of the
    semantics here, exactly like the sweep backends' bit-identity
    discipline: a tile's partial is accumulated sequentially in row-major
    order over its box, and partials are folded with {!tree_combine} — a
    fixed pairwise tree over the task index — so the result is bit-identical
    for every pool size, every backend, and every distributed engine. The
    combine tree is indexed by {e task order}, never by completion order. *)

type op =
  | Sum  (** [Σ aᵢ] *)
  | Dot  (** [Σ aᵢ·bᵢ] — the only binary operator *)
  | Norm2  (** [√(Σ aᵢ²)]; partials carry the un-rooted sum of squares *)
  | Max_abs  (** [max |aᵢ|] *)

val all : op list

val to_string : op -> string
(** ["sum"], ["dot"], ["norm2"], ["max_abs"]. *)

val of_string : string -> op option
val pp : Format.formatter -> op -> unit

val arity : op -> int
(** [2] for [Dot], else [1]. *)

val code : op -> int
(** Stable ABI code shared with the compiled backends:
    [Sum = 0], [Dot = 1], [Norm2 = 2], [Max_abs = 3]. *)

val identity : op -> float
(** Accumulator seed: [0.] for every operator ([Max_abs] folds absolute
    values, so [0.] is its identity too). *)

val point : op -> float -> float -> float
(** [point op acc v] (unary ops) folds one element into a partial:
    [acc +. v], [acc +. v*.v] or [if |v| > acc then |v| else acc]. For
    [Dot] use {!point2}. *)

val point2 : op -> float -> float -> float -> float
(** [point2 op acc a b] folds one element pair; unary ops ignore [b]. *)

val finalize : op -> float -> float
(** Applied once to the root of the combine tree: [sqrt] for [Norm2],
    identity otherwise. *)

val tree_combine : op -> float array -> float
(** [tree_combine op partials] folds two {e partials} at a time, [+.] for
    the additive operators and the larger one for [Max_abs], pairwise with
    stride doubling: level [s] folds index [i] with [i+s] for
    [i = 0, 2s, 4s, ...] — the fixed tree every executor (single-node
    pools, the distributed allreduce) uses, so results never depend on
    worker count or message arrival order. Each combine is associative and
    commutative in exact arithmetic; in floats only this order is part of
    the contract. The fold runs {e in place}: it overwrites [partials]
    (every caller owns a scratch array it refills per reduction) and
    returns [partials.(0)], allocating nothing.
    @raise Invalid_argument on an empty array. *)
