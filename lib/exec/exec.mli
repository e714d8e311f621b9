(** The unified execution configuration: one record answering the three
    questions every entry point used to take as scattered optional
    arguments — {e how} kernel sweeps run (the {!Backend}), {e how} halos
    are exchanged when distributed (the [engine]), and {e on what} domains
    parallel regions run (the pool).

    [Runtime.create], [Distributed.create], [Distributed.validate],
    [Verify.check] and [Msc.Pipeline] all accept a [?config]; the former
    positional/optional knobs ([?pool], [?engine] on [Distributed],
    [~workers] on [Pipeline.make]) are gone. Fields irrelevant to an entry
    point are ignored and documented there (a single-node [Runtime] has no
    halo engine; the processor simulators model the compiled artifact
    regardless of the host backend). *)

module Backend = Backend

type engine =
  | Bulk_synchronous
      (** exchange all faces, then compute — the §4.2 baseline *)
  | Overlapped
      (** interior compute overlapped with asynchronous face exchange;
          steps as the depth-1 [Temporal_blocked] block *)
  | Temporal_blocked of { depth : int }
      (** deep-halo communication-avoiding blocking: one exchange per
          [depth] steps *)

module Config : sig
  type t = {
    backend : Backend.t;  (** kernel execution backend *)
    engine : engine;  (** halo-exchange engine (distributed only) *)
    pool : Msc_util.Domain_pool.t;
        (** worker pool for parallel sweeps; callers keep ownership
            (create/shutdown), entry points only dispatch on it *)
  }

  val default : t
  (** [Interp] backend, [Overlapped] engine, the sequential pool. *)

  val make :
    ?backend:Backend.t ->
    ?engine:engine ->
    ?pool:Msc_util.Domain_pool.t ->
    unit ->
    t
  (** {!default} with overrides. *)
end
