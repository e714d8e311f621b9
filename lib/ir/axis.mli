(** Nested-loop IR (paper Table 2, [Axis]).

    An axis records its identifier, its order in the nest (0 = outermost),
    and its iteration bounds/stride. The schedule primitives split, reorder
    and annotate axes. *)

type parallel_mode =
  | Serial
  | Threads of int  (** OpenMP-style multi-threading over this axis *)
  | Cpe_tasks of int  (** athread-style task-to-CPE round-robin mapping *)

type t = {
  id_var : string;
  order : int;
  start : int;
  stop : int;  (** exclusive *)
  stride : int;
  parallel : parallel_mode;
}

val make : ?start:int -> ?stride:int -> string -> stop:int -> order:int -> t
val extent : t -> int
(** Number of iterations: [ceil((stop - start) / stride)]. *)

val trip_count : t list -> int
(** Product of extents of a loop nest. *)

val pp : Format.formatter -> t -> unit
