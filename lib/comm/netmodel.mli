(** Interconnect cost models for large-scale runs (Figure 10).

    A halo exchange is costed with the alpha-beta model per message, plus a
    topology-dependent congestion multiplier that grows with the number of
    concurrently communicating ranks — the effect the paper blames for the
    2-D strong-scaling droop on the Tianhe-3 prototype. *)

type t = {
  name : string;
  alpha_s : float;  (** per-message latency *)
  beta_gbs : float;  (** per-link bandwidth, GB/s *)
  congestion_at :
    nranks:int -> messages_per_rank:int -> bytes_per_message:float -> float;
      (** multiplier >= 1 applied to the per-message setup cost; small
          messages from many concurrent ranks congest hardest *)
}

val sunway_taihulight : t
(** Custom fat-tree; generous bisection: congestion stays near 1. *)

val tianhe3_prototype : t
(** Prototype interconnect with limited bisection bandwidth: congestion grows
    with scale and message count. *)

val shared_memory : t
(** Intra-node "network" used for the CPU-platform Physis comparison. *)

val set_sim_latency_scale : float -> unit
(** Scale applied to the {b wall-clock} latency {!Mpi_sim} charges on
    simulated messages (default [1.0]). The analytic times below are never
    scaled — setting [0.0] makes the simulator deliver instantly while every
    model-based cost (scaling curves, autotuning) is unchanged. The test
    harness sets [0.0] so [dune runtest] never sleeps on synthetic latency;
    benches run at [1.0].
    @raise Invalid_argument on a negative scale. *)

val sim_latency_scale : unit -> float
(** The current wall-clock scale. *)

val message_time : t -> nranks:int -> bytes:int -> float
(** In-flight time of a single message: per-message setup (congested at the
    given scale, one message per rank) plus payload streaming. This is the
    latency {!Mpi_sim} charges between posting a send and the matching
    receive completing, so traces show a genuine transfer window the
    overlapped protocol can hide compute behind. *)

val allreduce_time : t -> nranks:int -> bytes:int -> float
(** One allreduce of a [bytes]-sized value under recursive doubling:
    [ceil(log2 nranks)] rounds, each priced like a single {!message_time}
    message at the current scale — the same alpha-beta model as halo
    exchange, so solver reductions and halo traffic are directly
    comparable. [0.] for one rank.
    @raise Invalid_argument when [nranks < 1]. *)

val exchange_time :
  t -> nranks:int -> messages_per_rank:int -> bytes_per_message:float -> float
(** Wall time of one asynchronous exchange round: all ranks communicate
    concurrently, so the cost is one rank's serialised message stream times
    the congestion multiplier. *)

val master_coordinated_time :
  t -> nranks:int -> messages_per_rank:int -> bytes_per_message:float -> float
(** The Physis-style RPC protocol: every message is relayed through a master
    rank, serialising the entire exchange volume (§5.5). *)
