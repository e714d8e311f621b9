(** The unified execution configuration: one record answering the three
    questions every entry point used to take as scattered optional
    arguments — {e how} kernel sweeps run (the {!Backend}), {e how many}
    timesteps one halo exchange feeds when distributed (the temporal
    [depth]), and {e on what} domains parallel regions run (the pool).

    [Runtime.create], [Distributed.create], [Distributed.validate],
    [Verify.check] and [Msc.Pipeline] all accept a [?config]; the former
    positional/optional knobs ([?pool] on [Distributed], [~workers] on
    [Pipeline.make]) are gone. Fields irrelevant to an entry point are
    ignored and documented there (a single-node [Runtime] exchanges no
    halos; the processor simulators model the compiled artifact regardless
    of the host backend). *)

module Backend = Backend

module Config : sig
  type t = {
    backend : Backend.t;  (** kernel execution backend *)
    depth : int;
        (** temporal block depth of the distributed stepping protocol
            (distributed only): one asynchronous halo exchange, overlapped
            with each rank's interior sweep, feeds [depth] timesteps.
            [1] exchanges every step; deeper blocks widen the halo to
            [depth * radius] and recompute it instead of exchanging *)
    pool : Msc_util.Domain_pool.t;
        (** worker pool for parallel sweeps; callers keep ownership
            (create/shutdown), entry points only dispatch on it *)
  }

  val default : t
  (** [Interp] backend, depth 1, the sequential pool. *)

  val make :
    ?backend:Backend.t ->
    ?depth:int ->
    ?pool:Msc_util.Domain_pool.t ->
    unit ->
    t
  (** {!default} with overrides. The depth is checked where it is used
      ([Distributed.create] rejects [depth < 1]). *)
end
