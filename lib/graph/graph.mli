(** Pipeline graph IR: a DAG of named stencil stages over one evolving
    source grid.

    A pipeline computes [output[t]] from [source[t-1..t-W]] through a DAG
    of intermediate stages. Each stage is an {!Msc_ir.Stencil.t} whose
    input grid is either the pipeline {e source} (the stepped tensor, with
    its time window) or the output of another stage {e at the current
    step} ([dt = 1] by construction: intermediates are not stepped, they
    are recomputed every step). Kernel aux tensors may additionally name
    earlier stages, the source, or external coefficient grids.

    The designated [output] stage writes the next source state. The
    graph's semantics are exactly: evaluate each stage in topological
    order over the whole grid (reading predecessor stages and past source
    states), then commit the output stage as [source[t]]. The runtime
    computes every other stage tile-local, per output task into a window
    ({!Msc_schedule.Plan.compile_graph} assigns the window slots), which
    gives the same bits.

    Intermediates carry no boundary condition. Stages consumed by later
    stages are computed on an {e extended} range (the consumer's range
    grown by {!extension}) so consumer reads near the range edge see
    computed values rather than stale memory; the reads those extended
    points make near the grid faces land in the source's BC-filled (or
    halo-exchanged) ghost region, which is why {!required_halo} sums
    extension and radius. *)

type stage = { name : string; stencil : Msc_ir.Stencil.t }

type t = private {
  source : Msc_ir.Tensor.t;  (** the evolving, stepped grid *)
  stages : stage list;  (** topologically sorted, dependencies first *)
  output : string;  (** stage whose result becomes [source[t]] *)
  merged : bool;
      (** shared-halo execution enabled: distributed runs exchange the
          source once per step at {!required_halo} depth instead of
          exchanging each intermediate (set by
          {!Pass.merge_halos}). *)
}

val make :
  ?merged:bool -> source:Msc_ir.Tensor.t -> output:string -> stage list -> t
(** Validates and topologically sorts the stages.
    @raise Invalid_argument on duplicate or source-shadowing stage names,
    an undefined output, a dependency cycle, a stage input that is neither
    the source nor a stage, a stage-input read at [dt > 1], a shape
    mismatch, or an output stage that other stages read (the output must
    be a sink: intermediates hold only the current step). *)

val single : Msc_ir.Stencil.t -> t
(** The degenerate one-stage pipeline [st] itself. *)

val with_merged : t -> bool -> t
(** Same graph with the [merged] flag replaced (no revalidation). *)

(** {1 Structure} *)

val is_stage : t -> string -> bool

val stage : t -> string -> stage
(** @raise Invalid_argument if no stage has that name. *)

val output_stage : t -> stage

val reads : stage -> string list
(** Distinct tensor names the stage reads (input, aux, state), in first-use
    order. *)

val deps : t -> stage -> string list
(** The subset of {!reads} that are stage names. *)

val consumers : t -> string -> stage list
(** Stages that read the named tensor. *)

val reads_source : t -> stage -> bool

(** {1 Analysis} *)

val extensions : t -> (string, int array) Hashtbl.t
(** Per-stage ghost-zone extension: how many cells beyond the interior
    the stage must be computed so every (transitively extended) consumer
    read is covered. The output stage's extension is zero. *)

val extension : t -> string -> int array

val required_halo : t -> int array
(** Per-dimension [max] over stages of extension + stencil radius,
    clamped to at least 1: the uniform deep-halo width the whole pipeline
    runs at (and the width a merged distributed exchange uses). *)

val time_window : t -> int
(** Max [dt] over stages reading the source: past states to retain. *)

val sweeps_per_step : t -> int

val coefficient_tensors : t -> Msc_ir.Tensor.t list
(** Aux tensors that are neither stages nor the source — external
    read-only grids the executor must materialize. *)

val reshape : ?shape:int array -> halo:int array -> t -> t
(** Rebuild every tensor in the graph (source, stage grids, aux) with the
    given interior shape (default: the source's) and uniform halo, so one
    index space covers all stages: {!Msc_ir.Stencil.reshape} per stage. *)

(** {1 Comparison and rendering} *)

val equal : t -> t -> bool
(** Structural equality (tensors by name/geometry, expressions
    syntactically) — the pass driver's fixpoint test. *)

val to_dot : t -> string
(** Graphviz rendering: source and coefficient grids as boxes, stages as
    ellipses annotated with radius and extension, the output
    double-ringed. *)

val pp : Format.formatter -> t -> unit
