(** Descriptive statistics over float arrays. *)

val mean : float array -> float
(** Arithmetic mean. Requires a non-empty array. *)

val geomean : float array -> float
(** Geometric mean; all entries must be positive. *)

val variance : float array -> float
(** Population variance. *)

val stddev : float array -> float

val minimum : float array -> float
val maximum : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation between
    closest ranks. Does not mutate its argument. *)

val median : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

val summarize : float array -> summary
