(** Graph-rewriting passes over the pipeline IR, with a fixpoint driver.

    Every pass must preserve the graph's observable semantics {e
    bit-exactly}: executing the rewritten graph stage-at-a-time (in tree
    mode, the forced evaluation mode for graph stages — see
    {!Msc_exec.Interp.compile}) produces the same bits as the original.
    The fusion pass keeps this contract by substituting the producer's
    expression tree verbatim (parameters bound to constants, offsets
    shifted, the term scale folded in as the same multiply the sweep's
    per-point fold would perform) and simplifying only with
    {!Msc_ir.Simplify}, which never reassociates. *)

type t = { name : string; run : Graph.t -> Graph.t }

val dead_stage_elim : t
(** Drop stages not transitively reachable from the output. *)

val fuse : ?max_radius:int -> unit -> t
(** Producer→consumer fusion: fold a stage with exactly one consumer into
    that consumer as a compound kernel. One fusion per invocation (the
    driver iterates to a fixpoint). A producer is eligible when its
    stencil is a single term at [dt = 1] (a kernel application or a state
    copy, optionally scaled) whose expression uses no loop variables; the
    fusion is abandoned when the consumer reads the producer from a
    [dt > 1] term that would re-stamp the substituted reads, when
    re-pointing the consumer's input would change what its [State] terms
    mean, or when the composed per-dimension radius exceeds [max_radius]
    (default 8 — the SPM working-set clamp). *)

val merge_halos : ?max_width:int -> unit -> t
(** Mark the graph for shared-halo execution ({!Graph.t.merged}): the
    distributed runtime exchanges the source once per step with a
    {!Graph.required_halo}-deep halo instead of once per stage. Applied
    only when every dimension's required halo is at most [max_width]
    (default 8); idempotent. *)

val default_pipeline : t list
(** [dead_stage_elim; fuse (); merge_halos ()]. *)

val apply : ?trace:Msc_trace.t -> ?max_rounds:int -> t list -> Graph.t -> Graph.t
(** Run the pass list repeatedly until a whole round leaves the graph
    unchanged ({!Graph.equal}) or [max_rounds] (default 50) rounds have
    run. Each pass invocation records a [pass.<name>] trace span and a
    [pass.changed.<name>] counter when it rewrote the graph. *)
