(** Deterministic message-passing simulator with MPI-like semantics.

    All ranks live in one process; messages are real byte buffers moved
    through tag-matched FIFO channels, so pack/unpack and matching logic
    are genuinely exercised. Each rank owns a private mailbox of
    per-(src, tag) channels: matching is one int-keyed lookup in a
    lock-free (CAS-swapped immutable) table, each channel is a
    single-producer/single-consumer chunked ring published through one
    atomic counter, and ring cells are reused across steps — no mutex
    anywhere on the data path, so thousands of simulated ranks exchange
    halos in milliseconds of host time.

    Concurrency contract: distinct channels are fully independent, and a
    given (src, dst, tag) channel must have at most one concurrent sender
    and one concurrent receiver. That is exactly the distributed runtime's
    execution model — rank [src]'s sends issue from the domain running
    that rank, rank [dst]'s receives from the domain running [dst], each
    pool worker keeps one block of ranks for the whole run, and the
    pool's dispatch orders the hand-over to and from the calling domain —
    so the runtime can drive ranks concurrently over a
    {!Msc_util.Domain_pool}: every rank sends through its {!port}s,
    computes while the messages are in flight, and claims them from its
    {!slot}s afterwards — the non-blocking overlapped halo-exchange
    pattern of §4.4.

    Messages travel only through persistent endpoints: a {!port} /
    {!slot} pair resolves one (src, dst, tag) channel once, and every
    send or receive through it is O(1) with no allocation beyond the
    payload, whose ownership the sender hands over.

    With a {!Netmodel} attached, each message additionally carries a
    simulated in-flight latency ({!Netmodel.message_time}): {!slot_wait}
    blocks until the arrival time passes, so wall-clock traces show a real
    transfer window that overlapped computation can hide. Without one,
    delivery is instantaneous (the original lockstep behaviour). *)

type t

exception
  Deadlock of {
    src : int;
    dst : int;
    tag : int;
    waited_s : float;
    backlog : (int * int * int * int) list;
        (** every non-empty queue as [(src, dst, tag, depth)] — the
            misrouted or mis-tagged messages that explain the hang *)
  }
(** Raised by {!slot_wait} when no matching message shows up within the
    timeout. Registered with a {!Printexc} printer, so the report names the
    missing [(src, dst, tag)] and dumps the queues that {e do} hold
    messages (distinguishing a tag/neighbour bug from a genuinely missing
    send). *)

val create : ?net:Netmodel.t -> nranks:int -> unit -> t
(** [net] prices each message's in-flight latency; omitted = instantaneous
    delivery. @raise Invalid_argument when [nranks < 1]. *)

val nranks : t -> int

type stamp
(** A post time, immediate (unboxed): passing one allocates nothing. *)

val clock : t -> stamp
(** The current post time when sends need a wall-clock stamp (a network
    model is attached and {!Netmodel.sim_latency_scale} is non-zero), an
    "instantaneous" stamp that reads no clock otherwise. Read it once per
    send batch and pass it to {!port_send_at}. *)

type delay = Spin | Sleep of float

val wait_delay : waited:float -> remaining:float -> delay
(** The pacing {!slot_wait} uses between probes of a message that has
    not arrived, [waited] seconds into the wait. [remaining] is the time
    until the queued head message's arrival, [infinity] when nothing is
    queued. An in-flight message is waited for exactly:
    [Sleep] until just before its arrival, then [Spin]
    ({!Domain.cpu_relax}) through the last 0.1 ms. A missing message is
    polled with naps of 0.2 ms, growing with [waited] to 2 ms. *)

val allreduce :
  t -> tag:int -> combine:(float -> float -> float) -> float array -> float
(** [allreduce t ~tag ~combine partials] reduces one scalar per rank
    ([partials.(r)] is rank [r]'s contribution) to a single value every
    rank agrees on: gather-to-root, {!Msc_ir.Reduce.tree_combine} over
    the rank index, broadcast back. All [2 * (nranks - 1)] hops are real
    8-byte mailbox messages (counted by {!messages_sent} /
    {!bytes_sent}, priced by the attached {!Netmodel}), and the fold
    order is fixed by rank — never by arrival — so the result is
    bit-stable across engines and pool sizes. Single-rank simulators
    return [partials.(0)] without traffic. The endpoints of a tag are
    resolved on its first call and each rank's payload is reused, so later
    calls allocate no message. Drive it from one domain (the stepping
    driver), like the engine protocols.
    @raise Invalid_argument unless [Array.length partials = nranks], or
    when a message other than an 8-byte payload arrives on the tag's
    channels. *)

(** {1 Persistent endpoints}

    The persistent-request idiom for steady-state exchange patterns: the
    channel for a fixed (src, dst, tag) is resolved once and every
    subsequent send or completion is O(1) with zero allocation beyond the
    payload. Resolving the same channel again returns an endpoint on the
    same FIFO. *)

type port
(** A persistent send endpoint for one (src, dst, tag). *)

type slot
(** A persistent receive endpoint for one (src, dst, tag). Each
    {!slot_wait} / successful {!slot_test} claims the channel's next
    message in FIFO order. *)

val send_port : t -> src:int -> dst:int -> tag:int -> port
(** @raise Invalid_argument on out-of-range ranks. *)

val port_send : port -> Bytes.t -> unit
(** Asynchronous send: enqueues the payload, stamped with its simulated
    arrival time (post time plus the modelled flight, which each port
    memoizes for its last payload size), and never blocks. Ownership
    transfers: the caller must not mutate the buffer afterwards (the
    receiver gets this very buffer). *)

val port_send_at : stamp -> port -> Bytes.t -> unit
(** {!port_send} posted at a {!clock} reading, so a batch of sends reads
    the wall clock once. Allocates nothing. *)

val recv_slot : t -> dst:int -> src:int -> tag:int -> slot
(** @raise Invalid_argument on out-of-range ranks. *)

val slot_test : slot -> Bytes.t option
(** Claim the next message if one has arrived (simulated latency
    included); [None] otherwise. *)

val slot_wait : ?timeout_s:float -> slot -> Bytes.t
(** Claim the next message, FIFO per (src, dst, tag), blocking until it
    arrives (simulated latency included). A message that is merely in
    flight waits out its arrival time; a message that was never sent
    raises {!Deadlock} after [timeout_s] (default 1 s) with a dump of the
    queues that are non-empty. *)

val pending_messages : t -> int
(** Sent-but-unreceived messages (should be 0 between timesteps). *)

(** {1 Traffic counters (drive the network cost model)} *)

val messages_sent : t -> int
val bytes_sent : t -> int

val reset_counters : t -> unit
(** Zero [messages_sent], [bytes_sent] {e and} [pending_messages], so an
    aborted or partially drained exchange cannot leak stale in-flight counts
    into the next benchmark repetition. *)
