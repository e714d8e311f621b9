(** Compiled halo exchange (§4.4, Figure 6b/c).

    The sub-tensor is dissected into the inner halo region (data sent to
    neighbours), the outer halo region (data received from neighbours), and
    the inner region. A rank's traffic is compiled once into a {!plan}:
    for every direction that has a neighbour, the resolved {!Mpi_sim}
    endpoints and both slabs as flat [(offset, length)] runs over the
    grid's data. Each exchange then packs one float64 little-endian
    payload per neighbour, moves it through the mailbox, and unpacks it on
    the receiving side, with no lookup or allocation beyond the payloads.

    A message's tag is the {e sender's} direction index
    ({!Decomp.dir_index}), so a receiver matches on the opposite direction.
    One exchange = every rank runs {!post}, then — after any computation it
    wants to hide behind the in-flight messages — {!try_complete} (which
    never blocks) and/or {!complete} (which waits for each neighbour's
    post). The distributed runtime has every worker post all of its ranks
    before it completes any of them, so no rank waits on a message its own
    worker has yet to send.

    Each slab moves with one copy per run through a C stub, in both
    directions; on a big-endian host the stub byte-swaps each element, so
    payloads are float64 little-endian everywhere. *)

val payload_elems : Msc_exec.Grid.t -> dir:int array -> width:int array -> int
(** Elements of one grid's slab toward [dir] ([width] is the exchange
    width per dimension). *)

type plan
(** One rank's compiled exchange for grids of one shape and halo. *)

val plan :
  ?periodic:bool ->
  ?trace:Msc_trace.t ->
  Mpi_sim.t ->
  Decomp.t ->
  rank:int ->
  grid:Msc_exec.Grid.t ->
  width:int array ->
  faces_only:bool ->
  plan
(** Compile [rank]'s exchange for grids shaped like [grid]: one link per
    direction of {!Decomp.directions} that has a neighbour (with
    [periodic], every direction, wrapping around the process grid, self
    included). Its {!post} and {!complete} record on [trace]. *)

val peers : plan -> int array
(** The neighbour rank of each link, in posting order (one message each
    per {!post}; a periodic self-link names the rank itself). *)

val post : plan -> Msc_exec.Grid.t array -> unit
(** Pack and send one payload per neighbour (MPI_Isend): the inner slab of
    every grid, concatenated in order — [[|state|]] at depth 1, every
    retained state (dt = 1 first) for a temporal block deeper than one
    step, so a depth-[k] block pays one latency per neighbour.
    Records one ["halo.pack"] span and one ["halo.bytes"] counter, tagged
    with the rank as [tid].
    @raise Invalid_argument if a grid's shape or halo differs from the
    plan's. *)

val try_complete : plan -> Msc_exec.Grid.t array -> bool
(** Claim, without waiting, every neighbour's payload that has arrived
    (simulated in-flight latency included), keeping each on its link. Once
    every link holds its payload, unpack them all into [grids] as
    {!complete} does, record the same ["halo.exchange"] span (empty: there
    was nothing to wait for) and ["halo.unpack"] span, and return [true].
    Otherwise record nothing and return [false]: the claimed payloads stay
    on their links for a later [try_complete] or {!complete} of the same
    exchange. Allocates nothing.
    @raise Invalid_argument as {!complete} does. *)

val complete : ?timeout_s:float -> plan -> Msc_exec.Grid.t array -> unit
(** Wait out the payload of every neighbour whose link {!try_complete}
    has not already claimed this exchange (simulated in-flight latency
    included), then unpack each into the outer slabs of [grids] (the same
    grids, in the same order, the neighbours posted). Records one
    ["halo.exchange"] span over the waits and one ["halo.unpack"] span,
    tagged with the rank.
    @raise Invalid_argument on a grid geometry mismatch or a payload whose
    size is not one slab per grid.
    @raise Mpi_sim.Deadlock when a neighbour's send never arrives within
    [timeout_s] (a neighbour/tag bug). *)
