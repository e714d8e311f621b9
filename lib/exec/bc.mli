(** Boundary conditions for the physical edges of the domain.

    The paper's related work (§2.4) notes STELLA "supports updating the halo
    data through boundary conditions or its halo-exchanging library"; MSC's
    generated codes treat the physical halo as data. This module provides
    the three standard conditions; the default everywhere is
    [Dirichlet 0.0], which matches the paper's zero-halo convention.

    A condition is applied to a grid's halo cells. In distributed runs only
    the faces on the physical boundary are applied (interior faces are owned
    by the halo exchange); periodic domains have no physical faces at all —
    their wrap-around traffic goes through the exchange. *)

type t =
  | Dirichlet of float  (** halo cells hold a constant *)
  | Periodic  (** halo cells wrap to the opposite edge *)
  | Reflect  (** halo cells mirror the interior (zero-flux) *)

type plan
(** A refresh compiled for one (condition, shape, halo, masks): flat run
    ops over the padded box — fills (Dirichlet), ascending copies and
    reversed copies (Reflect along the innermost dimension) — with
    contiguous runs merged, so a Dirichlet face plane is one fill. *)

val compile : ?low:bool array -> ?high:bool array -> t -> Grid.t -> plan
(** Compile the refresh of the halo cells whose out-of-range dimensions
    all lie on physical faces, for grids of [g]'s shape and halo.
    [low]/[high] mark which faces are physical per dimension (default
    all). Mapping is per-dimension, so edges and corners compose
    correctly; non-physical out-of-range dimensions are kept as-is (their
    data comes from a prior exchange). Runs are emitted one innermost row
    segment at a time, so a 256³ plan builds in milliseconds.
    @raise Invalid_argument on a mask of the wrong rank, or a Periodic /
    Reflect halo wider than the interior. *)

val run : plan -> Grid.t -> unit
(** Execute a compiled refresh in place.
    @raise Invalid_argument if the grid's shape or halo differs from the
    one the plan was compiled for. *)

val apply : ?low:bool array -> ?high:bool array -> t -> Grid.t -> unit
(** [run (compile ?low ?high t g) g]. Stepping loops compile once and
    {!run} the plan instead. *)

val mapped_coord : t -> extent:int -> int -> int option
(** Where one out-of-range coordinate reads from: [None] for Dirichlet
    (constant, no source), [Some c'] for periodic/reflect. In-range
    coordinates map to themselves. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
