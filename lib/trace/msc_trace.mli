(** Pipeline-wide tracing and metrics.

    Every stage of the MSC pipeline — the native runtime's tile sweeps, the
    distributed runtime's halo pack/exchange/unpack, the processor
    simulators' DMA phases, the auto-tuner's trials — can report {e spans}
    (named, timed intervals) and {e counters} (named, summed quantities)
    into a trace. A trace is either {!disabled} (the default everywhere: a
    nullable sink whose fast path is a single branch, no allocation) or
    created with {!create} and passed down via the [?trace] argument each
    subsystem now takes.

    Collected traces export to the Chrome [trace_event] JSON format
    ({!to_chrome_json}, loadable in [about://tracing] / Perfetto) and to a
    per-phase aggregate table ({!report}, rendered with
    {!Msc_util.Table}).

    {b Workers.} Parallel runs over {!Msc_util.Domain_pool} record into
    per-worker buffers: a worker domain calls {!attach_worker} (the runtime
    does this through the pool's [on_worker] hook) and subsequent events on
    that domain go to a lock-free domain-local buffer tagged with the
    worker's [tid]. Unattached domains fall back to a mutex-protected
    shared buffer, so tracing is always safe, just cheaper when attached. *)

type t
(** A trace sink, or the disabled sink. Immutable handle; the underlying
    event buffers are mutable and domain-safe. *)

type event =
  | Span of { name : string; ts : float; dur : float; tid : int }
      (** A timed phase: [ts] seconds since trace creation, [dur] seconds. *)
  | Counter of { name : string; ts : float; value : float; tid : int }
      (** One increment of a named quantity (bytes, trials, points, ...). *)

val disabled : t
(** The nullable sink: every operation is a no-op costing one branch. *)

val create : ?clock:(unit -> float) -> unit -> t
(** A live trace. [clock] (default [Unix.gettimeofday]) supplies absolute
    times in seconds; events are stored relative to creation time. *)

val enabled : t -> bool

(** {1 Recording} *)

val begin_span : t -> float
(** Timestamp openers for the allocation-free begin/end style:
    [let t0 = begin_span tr in ... ; end_span tr "phase" t0].
    Returns [0.] when disabled. *)

val end_span : ?tid:int -> t -> string -> float -> unit
(** [end_span tr name t0] records a span from [t0] (a {!begin_span} result)
    to now. [tid] defaults to the attached worker id, or [0]. *)

val end_span_on : t -> tid:int -> string -> float -> unit
(** {!end_span} on an explicit timeline. A [~tid] passed to an optional
    [?tid] is boxed at every call, traced or not; this one allocates
    nothing while the trace is disabled, so per-step paths use it. *)

val span : ?tid:int -> t -> string -> (unit -> 'a) -> 'a
(** [span tr name f] times [f ()] as a span. Exceptions propagate; the span
    is still recorded. *)

val emit_span : ?tid:int -> t -> string -> dur_s:float -> unit
(** Record a span with an externally supplied duration — used by the
    performance {e simulators}, whose phase times are model results rather
    than wall-clock measurements. The span is stamped at the current time. *)

val add : ?tid:int -> t -> string -> float -> unit
(** [add tr name v] increments counter [name] by [v]. *)

val add_on : t -> tid:int -> string -> float -> unit
(** {!add} on an explicit timeline, allocation-free while disabled (see
    {!end_span_on}). *)

val attach_worker : t -> tid:int -> unit
(** Bind the calling domain to a per-worker buffer tagged [tid].
    Idempotent for the same trace and tid; no-op when disabled. Meant to be
    called from {!Msc_util.Domain_pool}'s [on_worker] hook at parallel-region
    entry. *)

(** {1 Inspection and export} *)

val events : t -> event list
(** All events (worker buffers merged), sorted by timestamp. *)

val span_count : t -> int

val to_chrome_json : t -> string
(** The Chrome [trace_event] array format: spans as complete events
    ([{"name", "ph":"X", "ts", "dur", "pid", "tid"}], timestamps in
    microseconds) and counters as [ph:"C"] events. [ [] ] when disabled. *)

type phase = {
  phase : string;
  calls : int;
  total_s : float;
  mean_s : float;
  share : float;  (** fraction of the summed span time *)
}

val phases : t -> phase list
(** Aggregate spans by name, largest total first. Nested spans each count
    their own duration, so shares can legitimately sum past 1. *)

type total = { counter : string; count : int; sum : float }

val totals : t -> total list
(** Aggregate counters by name, alphabetical. *)

val report : t -> string
(** The per-phase and counter aggregates as aligned ASCII tables
    ({!Msc_util.Table}). *)
