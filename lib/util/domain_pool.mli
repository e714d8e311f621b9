(** Shared-memory parallel iteration built on OCaml 5 domains.

    This is the execution substrate behind MSC's [parallel] primitive when a
    scheduled kernel is *run natively* (the CPU-platform experiments of
    §5.5). Cost-model simulators do not use it.

    The pool is {e persistent}: helper domains are spawned once — lazily, at
    the first parallel region — and parked on a condition variable between
    dispatches. A timestep loop therefore pays [Domain.spawn] exactly
    [size - 1] times over the pool's whole lifetime rather than once per
    step; {!spawn_total} exposes the count so tests and benchmarks can pin
    the invariant. Dispatch is single-consumer: concurrent [parallel_*]
    calls on the same pool from different domains are not supported. *)

type t

val create : int -> t
(** [create n] describes a pool of [n] workers ([n >= 1], clamped to 128).
    Oversubscribing the host's core count is allowed. No domain is spawned
    until the first parallel region runs; an abandoned pool's parked helpers
    are reclaimed by a GC finaliser, but long-lived programs should call
    {!shutdown} deterministically. *)

val size : t -> int

val sequential : t
(** A one-worker pool: [parallel_for] degrades to a plain loop and never
    spawns. *)

val shutdown : t -> unit
(** Wake and join the pool's helper domains. Idempotent; a later parallel
    region transparently respawns (counted by {!spawn_total}). *)

val spawn_total : t -> int
(** How many helper domains this pool has spawned over its lifetime —
    [size - 1] after any number of dispatches unless {!shutdown} forced a
    respawn. *)

val parallel_for :
  ?on_worker:(int -> unit) -> t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for t ~lo ~hi body] runs [body i] for [lo <= i < hi], statically
    chunked across the pool's workers. [body] must be safe to run concurrently
    on disjoint indices. Exceptions raised by workers are re-raised at the end
    of the region (first one wins); the pool stays usable afterwards.

    [on_worker w] runs once on each worker's domain at region entry, before
    any [body] call — the hook the tracing subsystem uses to bind each
    domain to a per-worker event buffer ({!Msc_trace.attach_worker} via the
    runtime). It must be domain-safe. With a persistent pool the hook runs
    on every region entry (workers survive across regions), so it should be
    idempotent — {!Msc_trace.attach_worker} is. *)

val parallel_blocks :
  ?on_worker:(int -> unit) -> t -> lo:int -> hi:int ->
  (worker:int -> int -> unit) -> unit
(** {!parallel_for}'s static chunking, passing each call the index of the
    worker running it (as {!parallel_chunks} does), so a body can use
    per-worker scratch. Worker [w] runs the indices of its
    {!parallel_ranges} range, in order. *)

val parallel_ranges : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** One region in which worker [w] runs [body a b] exactly once over its
    contiguous range [[a, b)], the [w]-th of [size t] consecutive blocks
    of [[lo, hi)] whose lengths differ by at most one, the longer ones
    first (with more workers than indices the last ranges are empty, and
    their workers still make the call). A body can run a multi-phase protocol
    over its whole range with no barrier between the phases, and a given
    index always lands on the same worker for a given pool size. *)

val range_start : t -> lo:int -> hi:int -> int -> int
(** [range_start t ~lo ~hi w]: where worker [w]'s {!parallel_ranges}
    range starts ([hi] for [w = size t]). *)

val parallel_chunks :
  ?on_worker:(int -> unit) -> t -> lo:int -> hi:int ->
  (worker:int -> int -> unit) -> unit
(** Like {!parallel_for} but round-robin assignment
    ([i mod size = worker]), mirroring the athread task-to-CPE mapping
    ([mod(task_id, 64) == my_id]) the paper describes in §4.3. *)
