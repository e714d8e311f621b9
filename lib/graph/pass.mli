(** Graph-rewriting passes over the pipeline IR, with a fixpoint driver.

    Every pass must preserve the graph's observable semantics {e
    bit-exactly}: executing the rewritten graph produces the same bits as
    executing the original stage at a time. Every stage sweep evaluates
    its kernels' expression trees as written ({!Msc_exec.Interp} is the
    reference), so the fusion pass keeps this contract by substituting the
    producer's expression tree verbatim (parameters bound to constants,
    offsets shifted, the term scale folded in as the same multiply the
    sweep's per-point fold would perform) and simplifying only with
    {!Msc_ir.Simplify}, which never reassociates. A producer left as a
    stage runs tile-local: the graph runtime computes it per task into a
    per-worker window ({!Msc_exec.Runtime.create_graph}). *)

type t = { name : string; run : Graph.t -> Graph.t }

val dead_stage_elim : t
(** Drop stages not transitively reachable from the output. *)

val fuse : ?max_radius:int -> unit -> t
(** Producer→consumer fusion: fold a stage with exactly one consumer into
    that consumer as a compound kernel (inline it). One fusion per
    invocation ({!apply} iterates to a fixpoint). A producer is eligible
    when its stencil is a single term at [dt = 1] (a kernel application or
    a state copy, optionally scaled) whose expression uses no loop
    variables; the fusion is abandoned when the consumer reads the
    producer from a [dt > 1] term that would re-stamp the substituted
    reads, when re-pointing the consumer's input would change what its
    [State] terms mean, or when the composed per-dimension radius exceeds
    [max_radius] (default 8, the SPM working-set clamp).

    An eligible producer [p] is inlined into its consumer [c] only when
    [(d - 1) * flops p <= flops c], where [d] is the number of distinct
    offsets at which [c] reads [p] and [flops] is
    {!Msc_ir.Stencil.flops_per_point}: inlining re-evaluates [p] once per
    offset, and may at most double [c]'s work. Every other producer stays
    a stage and runs tile-local. The rule reads only the stages' cost
    records. *)

val inline_all : ?max_radius:int -> unit -> t
(** {!fuse} without the cost rule: every eligible producer is inlined, as
    fusion did before the rule existed. No pass list of the library uses
    it; it is the all-inlined comparison plan of the fusion benchmark and
    the graph tests. Its decisions are not counted by {!apply}. *)

val merge_halos : ?max_width:int -> unit -> t
(** Mark the graph for shared-halo execution ({!Graph.t.merged}): the
    distributed runtime exchanges the source once per step with a
    {!Graph.required_halo}-deep halo instead of once per stage. Applied
    only when every dimension's required halo is at most [max_width]
    (default 8); idempotent. *)

val default_pipeline : t list
(** [dead_stage_elim; fuse (); merge_halos ()]. *)

type placement =
  | Inlined of string  (** folded into the named post-pass stage *)
  | Tile_local  (** kept as a stage: computed per task into a window *)
  | Output  (** the output stage *)
  | Dead  (** dropped: the output does not read it *)

val placements : raw:Graph.t -> Graph.t -> (string * placement) list
(** Where each stage of [raw] ended up in [g], the graph the passes made
    of it, in [raw]'s topological order. A stage missing from [g] was
    inlined into the first stage of [g] downstream of it in [raw], or is
    dead when none is. *)

val apply : ?trace:Msc_trace.t -> ?max_rounds:int -> t list -> Graph.t -> Graph.t
(** Run the pass list repeatedly until a whole round leaves the graph
    unchanged ({!Graph.equal}) or [max_rounds] (default 50) rounds have
    run. Each pass invocation records a [pass.<name>] trace span and a
    [pass.changed.<name>] counter when it rewrote the graph. When the
    list holds {!fuse}, each producer's final decision is counted once:
    [pass.fuse.inlined] or [pass.fuse.tile_local]. *)
