(** Dense n-dimensional grids with halo padding (the runtime realisation of an
    SpNode). Data is stored row-major over the padded box in a flat float
    array; the interior is offset by the halo width in each dimension.

    Boundary convention throughout the reproduction: halo cells hold Dirichlet
    data (zero unless written by a halo exchange), matching how the paper's
    generated code treats physical boundaries. *)

type t = private {
  shape : int array;  (** interior extents *)
  halo : int array;
  padded : int array;
  strides : int array;  (** row-major strides over the padded box *)
  data : float array;  (** length = product of [padded] *)
}

val create : shape:int array -> halo:int array -> t
(** Zero-filled grid. @raise Invalid_argument on bad shapes. *)

val strides_of : shape:int array -> halo:int array -> int array
(** The row-major strides of the padded box {!create} allocates. *)

val of_tensor : Msc_ir.Tensor.t -> t
val like : t -> t
val copy : t -> t
val ndim : t -> int
val interior_elems : t -> int

val flat_index : t -> int array -> int
(** Flat index of an interior coordinate (0-based, halo-adjusted). The
    coordinate may extend into the halo by up to the halo width. *)

val get : t -> int array -> float
val set : t -> int array -> float -> unit

val fill : ?rows:int * int -> t -> (int array -> float) -> unit
(** Set every interior point from its coordinate; halo is untouched. The
    function is called once per point, in row-major order, on the calling
    domain, with one coordinate array updated in place (copy it to keep
    it). The walk goes one innermost row at a time, advancing the flat
    index instead of recomputing it per point. [rows = (a, b)] fills only
    the points whose dimension-0 coordinate is in [\[a, b)]: filling
    consecutive row ranges makes the same calls, in the same order, as
    one whole fill.
    @raise Invalid_argument if [rows] leaves [\[0, shape.(0)\]]. *)

val fill_extended : t -> (int array -> float) -> unit
(** Set every cell {e including the halo} from its interior-relative
    coordinate (halo cells get negative / beyond-extent coordinates), in
    the same order and with the same coordinate array as {!fill}. Used
    for static coefficient grids, whose boundary values are defined by the
    same closed form as the interior. *)

val fill_random : t -> Msc_util.Prng.t -> unit
(** Uniform values in [\[0,1)] over the interior. *)

val fill_all : t -> float -> unit
(** Every cell, halo included. *)

val clear_halo : t -> unit
(** Zero all halo cells, keeping the interior. *)

val iter_interior : t -> (int array -> unit) -> unit
(** Visit interior coordinates in row-major order. The coordinate array is
    reused between calls; copy it if retained. *)

val blit_interior : src:t -> dst:t -> unit
(** Copy the interior region; shapes must match (halos may differ). One
    [Array.blit] per contiguous innermost row. *)

val max_abs : t -> float
val max_rel_error : reference:t -> t -> float
(** max over interior of [|a-b| / max(|a|, 1)]; shapes must match. *)

val checksum : t -> float
(** Order-independent digest of the interior, for quick equality tests. *)

val save : t -> string -> unit
(** Serialise to a binary file: magic, rank, shape, halo, then the padded
    data as little-endian float64 — the on-disk format behind the DSL's
    [st.input(..., "/data/rand.data")]. *)

val load : string -> t
(** @raise Invalid_argument on a malformed or truncated file. *)

val pp_stats : Format.formatter -> t -> unit
