(* Per-rank mailboxes: rank [dst]'s mailbox holds one channel per (src, tag)
   pair it has ever seen, each channel an unbounded chunked ring of
   in-flight messages. The channel table is an immutable int-keyed map
   swapped by CAS — lookups never lock — and each channel is a
   single-producer/single-consumer queue published through one atomic
   counter, so posting and completing a message costs a handful of plain
   stores plus one atomic each, with no mutex anywhere on the data path. A
   4096-rank exchange has no global serialisation point at all.

   The SPSC contract mirrors the execution model of the distributed
   runtime: a given (src, dst, tag) channel is fed by the domain running
   rank [src] and drained by the one running rank [dst]. A stepping engine
   gives each pool worker one fixed block of ranks for the whole run, so
   within a run a rank never changes domain; exchanges driven from the
   calling domain instead (the set-up refresh, a bulk step's exchange, a
   collective) are ordered against the workers' by the pool's dispatch
   and completion hand-offs. Distinct channels are fully independent.

   Segment cells are reused and channels persist across steps: in steady
   state (every halo exchange sends the same channels every step) a message
   allocates nothing but its payload, which the sender hands over without
   a copy. Callers resolve a channel once, as a [send_port] / [recv_slot]
   pair (the persistent-request idiom), so no send or receive looks
   anything up. *)

module Imap = Map.Make (Int)

(* Ring chunk size: a halo exchange keeps at most a few messages in flight
   per channel, so one segment almost always suffices and deep backlogs
   (e.g. the mis-tagged traffic a Deadlock dumps) chain further segments.
   Kept small deliberately — at thousands of ranks the aggregate channel
   footprint is what bounds exchange throughput (the working set streams
   through cache twice per step), and 4 cells halves the step time that 32
   cells gives at 4096 ranks. *)
let seg_cap = 4

type seg = {
  buf : Bytes.t array;
  arr : float array;
  (* Written by the producer before the element it serves is published
     through [produced], so the consumer never follows a dangling link.
     [nil_seg] until linked: a sentinel instead of an option, so linking a
     recycled segment allocates nothing. *)
  mutable next : seg;
}

let rec nil_seg = { buf = [||]; arr = [||]; next = nil_seg }

type chan = {
  c_src : int;
  c_tag : int;
  produced : int Atomic.t;  (* publication point for everything below *)
  (* Producer-owned cursor and totals. *)
  mutable p_seg : seg;
  mutable p_idx : int;
  mutable p_bytes : int;
  (* Consumer-owned cursor. *)
  mutable consumed : int;
  mutable c_seg : seg;
  mutable c_idx : int;
  (* One-slot segment freelist ([nil_seg] when empty): the consumer parks
     each exhausted segment here and the producer reuses it instead of
     allocating, so steady-state traffic allocates nothing at all. *)
  spare : seg Atomic.t;
}

type mailbox = { channels : chan Imap.t Atomic.t }

type t = {
  nranks : int;
  mailboxes : mailbox array;
  net : Netmodel.t option;
  origin : float;  (* wall-clock zero of the simulator's {!stamp}s *)
  (* The resolved endpoints of each collective tag, built on its first
     call. Collectives run from one domain, like the engines' drivers. *)
  mutable collectives : collective list;
  (* Counter baselines recorded by [reset_counters]: the live totals are
     derived from the channels, so "resetting" subtracts a snapshot. *)
  mutable base_messages : int;
  mutable base_bytes : int;
  mutable base_pending : int;
}

(* Persistent endpoints: the channel resolved once, reused every step. *)
and port = {
  po_t : t;
  po_ch : chan;
  (* One-entry memo of the modelled flight time by payload size: a halo
     link sends one size every step, so the model runs once per link.
     Only the port's sender writes it, so stamping takes no lock. *)
  mutable memo_bytes : int;
  mutable memo_flight : float;
}

and slot = { sl_t : t; sl_dst : int; sl_ch : chan }

(* One collective tag's endpoints: rank [r]'s port to the root and the
   root's back to it, the matching slots, and one 8-byte payload per rank
   that ping-pongs between the two, so a call allocates no message. *)
and collective = {
  co_tag : int;
  up : port array;
  up_slots : slot array;
  down : port array;
  down_slots : slot array;
  bufs : Bytes.t array;
  gathered : float array;
}

exception
  Deadlock of {
    src : int;
    dst : int;
    tag : int;
    waited_s : float;
    backlog : (int * int * int * int) list;
  }

let () =
  Printexc.register_printer (function
    | Deadlock { src; dst; tag; waited_s; backlog } ->
        let pending =
          match backlog with
          | [] -> "no messages pending anywhere"
          | qs ->
              String.concat "; "
                (List.map
                   (fun (s, d, tg, n) ->
                     Printf.sprintf "src=%d dst=%d tag=%d: %d queued" s d tg n)
                   qs)
        in
        Some
          (Printf.sprintf
             "Mpi_sim.Deadlock: no message for src=%d dst=%d tag=%d after \
              %.3f s (%s)"
             src dst tag waited_s pending)
    | _ -> None)

let now () = Unix.gettimeofday ()

let create ?net ~nranks () =
  if nranks < 1 then invalid_arg "Mpi_sim.create: need at least one rank";
  {
    nranks;
    mailboxes = Array.init nranks (fun _ -> { channels = Atomic.make Imap.empty });
    net;
    origin = now ();
    collectives = [];
    base_messages = 0;
    base_bytes = 0;
    base_pending = 0;
  }

let nranks t = t.nranks

let check_rank t r name =
  if r < 0 || r >= t.nranks then
    invalid_arg (Printf.sprintf "Mpi_sim.%s: rank %d out of [0,%d)" name r t.nranks)

let new_seg () =
  { buf = Array.make seg_cap Bytes.empty; arr = Array.make seg_cap 0.0; next = nil_seg }

let new_chan ~src ~tag =
  let s = new_seg () in
  {
    c_src = src;
    c_tag = tag;
    produced = Atomic.make 0;
    p_seg = s;
    p_idx = 0;
    p_bytes = 0;
    consumed = 0;
    c_seg = s;
    c_idx = 0;
    spare = Atomic.make nil_seg;
  }

(* Lock-free find-or-create: losers of the CAS race retry the lookup and
   adopt the winner's channel (a fresh channel has no observable effects
   until messages flow through it, so discarding the loser is safe). *)
let rec chan_of t mb ~src ~tag =
  let key = (tag * t.nranks) + src in
  let m = Atomic.get mb.channels in
  match Imap.find_opt key m with
  | Some ch -> ch
  | None ->
      let ch = new_chan ~src ~tag in
      if Atomic.compare_and_set mb.channels m (Imap.add key ch m) then ch
      else chan_of t mb ~src ~tag

(* Producer side; at most one thread per channel (SPSC contract). Moves
   the producer cursor into a fresh segment when the current one is full. *)
let make_room ch =
  if ch.p_idx = seg_cap then begin
    let s =
      match Atomic.exchange ch.spare nil_seg with
      | s when s == nil_seg -> new_seg ()
      | s -> s (* recycled: cells already cleared, [next] already nil *)
    in
    ch.p_seg.next <- s;
    ch.p_seg <- s;
    ch.p_idx <- 0
  end

(* Consumer side; at most one thread per channel. Step the cursor into the
   next segment lazily — the link is guaranteed published whenever
   [produced] covers an element beyond the current segment. *)
let cursor_advance ch =
  if ch.c_idx = seg_cap then begin
    let old = ch.c_seg in
    assert (old.next != nil_seg);
    ch.c_seg <- old.next;
    ch.c_idx <- 0;
    (* Park the drained segment for the producer to reuse (its cells
       were cleared as each message was claimed). *)
    old.next <- nil_seg;
    Atomic.set ch.spare old
  end

(* Simulated arrival time of the channel's head message, [infinity] when
   empty. Consumer thread only. *)
let head_arrival ch =
  if ch.consumed >= Atomic.get ch.produced then infinity
  else begin
    cursor_advance ch;
    ch.c_seg.arr.(ch.c_idx)
  end

(* Physically unique "nothing claimable" sentinel: it never escapes this
   module, and every payload a caller can hand us is a distinct block, so
   [==] against it is unambiguous — and the hot path allocates no option. *)
let no_msg = Bytes.create 0

(* Claim the head message if posted AND its simulated arrival has passed;
   [no_msg] otherwise. Consumer thread only. *)
let take_now ch =
  if ch.consumed >= Atomic.get ch.produced then no_msg
  else begin
    cursor_advance ch;
    let a = ch.c_seg.arr.(ch.c_idx) in
    if a = neg_infinity || a <= now () then begin
      let payload = ch.c_seg.buf.(ch.c_idx) in
      (* Drop the ring's reference so delivered payloads are not kept alive
         until the cell is overwritten. *)
      ch.c_seg.buf.(ch.c_idx) <- Bytes.empty;
      ch.c_idx <- ch.c_idx + 1;
      ch.consumed <- ch.consumed + 1;
      payload
    end
    else no_msg
  end

(* Post times as whole nanoseconds since the simulator's origin: an
   immediate int, so a batch's stamp crosses module boundaries unboxed.
   [instant] marks instantaneous delivery: no network model, or the
   wall-clock latency scale zeroed, as the test harness runs — and then no
   clock is read at all. *)
type stamp = int

let instant = min_int

let clock t =
  match t.net with
  | Some _ when Netmodel.sim_latency_scale () <> 0.0 ->
      int_of_float ((now () -. t.origin) *. 1e9)
  | Some _ | None -> instant

let backlog_of t =
  let acc = ref [] in
  Array.iteri
    (fun dst mb ->
      Imap.iter
        (fun _ ch ->
          let n = Atomic.get ch.produced - ch.consumed in
          if n > 0 then acc := (ch.c_src, dst, ch.c_tag, n) :: !acc)
        (Atomic.get mb.channels))
    t.mailboxes;
  List.sort compare !acc

(* How a blocked receive spends the time until its next probe. A message
   that is posted but still in flight has a known arrival: sleep toward it
   (waking [spin_window] early, since a nap can overshoot by tens of
   microseconds) and spin the rest with [Domain.cpu_relax], so it
   completes at its arrival rather than a whole nap later. A missing
   message has no arrival: poll every 0.2 ms at first, backing off to
   2 ms, which bounds the deadlock timeout's resolution. *)
type delay = Spin | Sleep of float

let spin_window = 1e-4

let wait_delay ~waited ~remaining =
  if remaining = infinity then Sleep (Float.min 2e-3 (Float.max 2e-4 waited))
  else if remaining <= spin_window then Spin
  else Sleep (remaining -. spin_window)

(* A message that is already queued completes on the first probe, without
   reading the clock for the deadline. Only a missing message can time
   out: an in-flight one always arrives. *)
let wait_chan ?(timeout_s = 1.0) t ~dst ch =
  let first = take_now ch in
  if first != no_msg then first
  else begin
    let start = now () in
    let deadline = start +. timeout_s in
    let rec poll () =
      let payload = take_now ch in
      if payload != no_msg then payload
      else begin
        let ha = head_arrival ch in
        let t_now = now () in
        if t_now >= deadline && ha = infinity then
          raise
            (Deadlock
               {
                 src = ch.c_src;
                 dst;
                 tag = ch.c_tag;
                 waited_s = t_now -. start;
                 backlog = backlog_of t;
               });
        (match wait_delay ~waited:(t_now -. start) ~remaining:(ha -. t_now) with
        | Spin -> Domain.cpu_relax ()
        | Sleep s -> Unix.sleepf s);
        poll ()
      end
    in
    poll ()
  end

(* --- persistent endpoints --- *)

let send_port t ~src ~dst ~tag =
  check_rank t src "send_port";
  check_rank t dst "send_port";
  { po_t = t; po_ch = chan_of t t.mailboxes.(dst) ~src ~tag; memo_bytes = -1; memo_flight = 0.0 }

(* The arrival stamp is post time + scaled modelled flight; everything
   stays in registers (a float handed to another function is boxed). *)
let port_send_at at port payload =
  let ch = port.po_ch in
  let bytes = Bytes.length payload in
  make_room ch;
  let i = ch.p_idx in
  ch.p_seg.buf.(i) <- payload;
  (match port.po_t.net with
  | Some net when at <> instant ->
      if port.memo_bytes <> bytes then begin
        port.memo_flight <- Netmodel.message_time net ~nranks:port.po_t.nranks ~bytes;
        port.memo_bytes <- bytes
      end;
      ch.p_seg.arr.(i) <-
        port.po_t.origin +. (float_of_int at *. 1e-9)
        +. (Netmodel.sim_latency_scale () *. port.memo_flight)
  | Some _ | None -> ch.p_seg.arr.(i) <- neg_infinity);
  ch.p_idx <- i + 1;
  ch.p_bytes <- ch.p_bytes + bytes;
  (* Publishes the element and every plain write above it. *)
  Atomic.incr ch.produced

let port_send port payload = port_send_at (clock port.po_t) port payload

let recv_slot t ~dst ~src ~tag =
  check_rank t src "recv_slot";
  check_rank t dst "recv_slot";
  { sl_t = t; sl_dst = dst; sl_ch = chan_of t t.mailboxes.(dst) ~src ~tag }

let slot_test slot =
  let payload = take_now slot.sl_ch in
  if payload == no_msg then None else Some payload

let slot_wait ?timeout_s slot =
  wait_chan ?timeout_s slot.sl_t ~dst:slot.sl_dst slot.sl_ch

(* Payloads carry exact float bits, little-endian. The native-endian
   primitives are bounds-checked like [Bytes.get_int64_le] and, applied
   directly, box no [int64]. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let[@inline] put_float b v =
  if Sys.big_endian then Bytes.set_int64_le b 0 (Int64.bits_of_float v)
  else set64 b 0 (Int64.bits_of_float v)

let[@inline] get_float b =
  if Bytes.length b <> 8 then
    invalid_arg
      (Printf.sprintf "Mpi_sim.allreduce: a %d-byte message on a collective channel"
         (Bytes.length b));
  if Sys.big_endian then Int64.float_of_bits (Bytes.get_int64_le b 0)
  else Int64.float_of_bits (get64 b 0)

let collective t ~tag =
  match List.find_opt (fun c -> c.co_tag = tag) t.collectives with
  | Some c -> c
  | None ->
      let n = t.nranks in
      let c =
        {
          co_tag = tag;
          up = Array.init n (fun r -> send_port t ~src:r ~dst:0 ~tag);
          up_slots = Array.init n (fun r -> recv_slot t ~dst:0 ~src:r ~tag);
          down = Array.init n (fun r -> send_port t ~src:0 ~dst:r ~tag);
          down_slots = Array.init n (fun r -> recv_slot t ~dst:r ~src:0 ~tag);
          bufs = Array.init n (fun _ -> Bytes.create 8);
          gathered = Array.make n 0.0;
        }
      in
      t.collectives <- c :: t.collectives;
      c

(* Rank [r]'s 8-byte payload. It is [Bytes.empty] while in flight, and
   stays so when a call raised before the payload came back (a timed-out
   wait): the next call then starts with a fresh one. *)
let payload c r =
  let b = c.bufs.(r) in
  if Bytes.length b = 8 then b else Bytes.create 8

(* Driver-side collective: rank-gather to root, deterministic tree fold,
   broadcast back. Every hop is a real mailbox message — 8-byte payloads
   carrying exact float bits — so traffic counters and simulated latency
   account for solver reductions exactly like halo slabs. The fold runs
   over the *rank-indexed* gather array with Reduce.tree_combine, never
   over arrival order, so the result is bit-stable. Each payload goes back
   the way it came: the root answers rank [r] in the buffer [r] sent, and
   [r] keeps it for its next contribution. *)
let allreduce t ~tag ~combine partials =
  let n = nranks t in
  if Array.length partials <> n then
    invalid_arg "Mpi_sim.allreduce: need exactly one partial per rank";
  if n = 1 then partials.(0)
  else begin
    let c = collective t ~tag in
    let at = clock t in
    for r = 1 to n - 1 do
      let b = payload c r in
      put_float b partials.(r);
      c.bufs.(r) <- Bytes.empty;
      port_send_at at c.up.(r) b
    done;
    c.gathered.(0) <- partials.(0);
    for r = 1 to n - 1 do
      let b = slot_wait c.up_slots.(r) in
      c.gathered.(r) <- get_float b;
      c.bufs.(r) <- b
    done;
    let result = Msc_ir.Reduce.tree_combine combine c.gathered in
    let at = clock t in
    for r = 1 to n - 1 do
      let b = payload c r in
      put_float b result;
      c.bufs.(r) <- Bytes.empty;
      port_send_at at c.down.(r) b
    done;
    (* Every rank decodes the same broadcast bits; the last decode is
       returned (they are all equal by construction). *)
    let out = ref result in
    for r = 1 to n - 1 do
      let b = slot_wait c.down_slots.(r) in
      out := get_float b;
      c.bufs.(r) <- b
    done;
    !out
  end

(* Live totals derived from the channels. Exact whenever the ranks are
   quiescent (between engine phases / timesteps — where every caller
   reads them); mid-exchange reads are a best-effort snapshot. *)
let sum_chans t f =
  let acc = ref 0 in
  Array.iter
    (fun mb -> Imap.iter (fun _ ch -> acc := !acc + f ch) (Atomic.get mb.channels))
    t.mailboxes;
  !acc

let live_messages t = sum_chans t (fun ch -> Atomic.get ch.produced)
let live_bytes t = sum_chans t (fun ch -> ch.p_bytes)
let live_pending t = sum_chans t (fun ch -> Atomic.get ch.produced - ch.consumed)
let messages_sent t = live_messages t - t.base_messages
let bytes_sent t = live_bytes t - t.base_bytes
let pending_messages t = live_pending t - t.base_pending

let reset_counters t =
  t.base_messages <- live_messages t;
  t.base_bytes <- live_bytes t;
  (* [pending] too: a stale in-flight count from an aborted exchange must
     not leak into the next benchmark repetition's accounting. *)
  t.base_pending <- live_pending t
