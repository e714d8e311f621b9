(** Sunway (SW26010) code generation: an athread master/slave pair.

    The master translation unit owns allocation, the sliding-window time loop
    and the per-step [athread_spawn]; the slave unit maps the plan's tile
    tasks to CPEs round-robin ([task_id % 64 == my_id], §4.3), stages each
    padded tile into scratchpad buffers with row-wise DMA gets, computes
    locally, and DMA-puts the tile back — the realisation of the
    [cache_read]/[cache_write]/[compute_at] primitives. Tile extents, task
    count and CPE count all come from the lowered {!Msc_schedule.Plan.t}
    (whose [working_set_bytes] is the scratchpad footprint the backend
    checks against the SPM capacity). *)

val generate_master : ?steps:int -> Msc_schedule.Plan.t -> string

val generate_slave : Msc_schedule.Plan.t -> string
(** Each output point is one fused summed expression of the stencil's
    terms ({!Emit_common.point_terms}), the per-point fold every host
    sweep performs, so the float addition order matches the host run
    being cross-checked whichever backend that run used. *)
