(* Tests for the communication library: the MPI simulator, domain
   decomposition, halo pack/unpack/exchange, the distributed runtime, the
   network model and the scalability estimator. *)

open Helpers
module Mpi = Msc_comm.Mpi_sim
module Decomp = Msc_comm.Decomp
module Halo = Msc_comm.Halo
module Distributed = Msc_comm.Distributed
module Netmodel = Msc_comm.Netmodel
module Scaling = Msc_comm.Scaling
module Grid = Msc_exec.Grid
module Exec = Msc_exec.Exec

(* [Exec.Config] bundles the backend, temporal depth and pool knobs. *)
let cfg ?backend ?depth ?pool () = Exec.Config.make ?backend ?depth ?pool ()

(* --- MPI simulator --- *)

(* Point-to-point helpers over the persistent endpoints: resolve the
   channel and send (ownership of a fresh buffer passes), or resolve it and
   claim the next message. *)
let send mpi ~src ~dst ~tag payload =
  Mpi.port_send (Mpi.send_port mpi ~src ~dst ~tag) payload

let recv ?timeout_s mpi ~dst ~src ~tag =
  Mpi.slot_wait ?timeout_s (Mpi.recv_slot mpi ~dst ~src ~tag)

let mpi_send_recv () =
  let mpi = Mpi.create ~nranks:4 () in
  send mpi ~src:0 ~dst:3 ~tag:7 (Bytes.of_string "hello");
  check_string "payload" "hello" (Bytes.to_string (recv mpi ~dst:3 ~src:0 ~tag:7));
  check_int "drained" 0 (Mpi.pending_messages mpi)

let mpi_fifo_order () =
  let mpi = Mpi.create ~nranks:2 () in
  let port = Mpi.send_port mpi ~src:0 ~dst:1 ~tag:0 in
  Mpi.port_send port (Bytes.of_string "first");
  Mpi.port_send port (Bytes.of_string "second");
  let slot = Mpi.recv_slot mpi ~dst:1 ~src:0 ~tag:0 in
  check_string "fifo 1" "first" (Bytes.to_string (Mpi.slot_wait slot));
  check_string "fifo 2" "second" (Bytes.to_string (Mpi.slot_wait slot))

let mpi_tag_matching () =
  let mpi = Mpi.create ~nranks:2 () in
  send mpi ~src:0 ~dst:1 ~tag:1 (Bytes.of_string "a");
  send mpi ~src:0 ~dst:1 ~tag:2 (Bytes.of_string "b");
  check_string "tag 2 first" "b" (Bytes.to_string (recv mpi ~dst:1 ~src:0 ~tag:2));
  check_string "then tag 1" "a" (Bytes.to_string (recv mpi ~dst:1 ~src:0 ~tag:1))

let mpi_deadlock_detected () =
  let mpi = Mpi.create ~nranks:2 () in
  (* A message on an unrelated channel, so the report can point at it. *)
  send mpi ~src:1 ~dst:0 ~tag:5 (Bytes.of_string "misrouted");
  match recv ~timeout_s:0.05 mpi ~dst:1 ~src:0 ~tag:0 with
  | _ -> Alcotest.fail "wait on a never-sent message must raise"
  | exception Mpi.Deadlock { src; dst; tag; waited_s; backlog } ->
      check_int "src" 0 src;
      check_int "dst" 1 dst;
      check_int "tag" 0 tag;
      check_bool "waited at least the timeout" true (waited_s >= 0.05);
      check_bool "backlog names the misrouted message" true
        (List.mem (1, 0, 5, 1) backlog)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let mpi_deadlock_report_printable () =
  let mpi = Mpi.create ~nranks:2 () in
  match recv ~timeout_s:0.02 mpi ~dst:0 ~src:1 ~tag:3 with
  | _ -> Alcotest.fail "wait on a never-sent message must raise"
  | exception (Mpi.Deadlock _ as e) ->
      let msg = Printexc.to_string e in
      check_bool "names the channel" true
        (contains_sub msg "src=1 dst=0 tag=3");
      check_bool "reports empty queues" true
        (contains_sub msg "no messages pending anywhere")

let mpi_counters () =
  let mpi = Mpi.create ~nranks:2 () in
  send mpi ~src:0 ~dst:1 ~tag:0 (Bytes.create 100);
  send mpi ~src:0 ~dst:1 ~tag:1 (Bytes.create 40);
  ignore (recv mpi ~dst:1 ~src:0 ~tag:0);
  check_int "messages" 2 (Mpi.messages_sent mpi);
  check_int "bytes" 140 (Mpi.bytes_sent mpi);
  check_int "one still pending" 1 (Mpi.pending_messages mpi);
  Mpi.reset_counters mpi;
  (* All three counters reset — [pending] included, so an abandoned
     message cannot leak into the next repetition's accounting. *)
  check_int "messages reset" 0 (Mpi.messages_sent mpi);
  check_int "bytes reset" 0 (Mpi.bytes_sent mpi);
  check_int "pending reset" 0 (Mpi.pending_messages mpi)

(* [slot_test] claims a message at most once: [None] before the send,
   [Some] on the first probe after it, [None] again once claimed. *)
let mpi_test_probe () =
  let mpi = Mpi.create ~nranks:2 () in
  let slot = Mpi.recv_slot mpi ~dst:1 ~src:0 ~tag:0 in
  check_bool "nothing sent yet" true (Mpi.slot_test slot = None);
  send mpi ~src:0 ~dst:1 ~tag:0 (Bytes.of_string "now");
  check_string "payload claimed once sent" "now"
    (match Mpi.slot_test slot with Some b -> Bytes.to_string b | None -> "<none>");
  check_bool "claimed exactly once" true (Mpi.slot_test slot = None);
  check_int "drained" 0 (Mpi.pending_messages mpi)

let test_net alpha_s =
  {
    Netmodel.name = "test-net";
    alpha_s;
    beta_gbs = 1.0;
    congestion_at = (fun ~nranks:_ ~messages_per_rank:_ ~bytes_per_message:_ -> 1.0);
  }

let mpi_simulated_latency () =
  (* A synthetic network whose only cost is a 30 ms per-message setup:
     [wait] must sleep out the in-flight window. The harness zeroes the
     wall-clock scale globally, so restore it locally around the one test
     that exercises the genuine sleep path. *)
  let saved = Netmodel.sim_latency_scale () in
  Netmodel.set_sim_latency_scale 1.0;
  Fun.protect
    ~finally:(fun () -> Netmodel.set_sim_latency_scale saved)
    (fun () ->
      let mpi = Mpi.create ~net:(test_net 0.03) ~nranks:2 () in
      send mpi ~src:0 ~dst:1 ~tag:0 (Bytes.of_string "slow");
      let slot = Mpi.recv_slot mpi ~dst:1 ~src:0 ~tag:0 in
      check_bool "still in flight" true (Mpi.slot_test slot = None);
      let t0 = Unix.gettimeofday () in
      ignore (Mpi.slot_wait slot);
      let elapsed = Unix.gettimeofday () -. t0 in
      check_bool "waited out the latency" true (elapsed >= 0.02))

(* The pacing of a blocked receive: an in-flight message is slept toward
   and then spun for, never overslept; only a missing one is polled. *)
let mpi_wait_delay_policy () =
  let nap = function Mpi.Sleep s -> s | Mpi.Spin -> 0.0 in
  let spins r = Mpi.wait_delay ~waited:0.0 ~remaining:r = Mpi.Spin in
  check_bool "arrival in 2 us: spin" true (spins 2e-6);
  check_bool "arrival passed: spin" true (spins (-1e-6));
  List.iter
    (fun r ->
      let s = nap (Mpi.wait_delay ~waited:0.0 ~remaining:r) in
      check_bool (Printf.sprintf "wakes before an arrival %g s away" r) true
        (s > 0.0 && s < r))
    [ 3e-4; 5e-3; 0.5 ];
  let missing waited = nap (Mpi.wait_delay ~waited ~remaining:infinity) in
  check_float "missing: first poll 0.2 ms" 2e-4 (missing 0.0);
  check_float "missing: backs off" 1e-3 (missing 1e-3);
  check_float "missing: at most 2 ms" 2e-3 (missing 5.0)

(* End to end: a message whose modelled flight is ~1.6 us completes within
   microseconds of its arrival, not a minimum nap later. *)
let mpi_wait_in_flight_promptly () =
  let saved = Netmodel.sim_latency_scale () in
  Netmodel.set_sim_latency_scale 1.0;
  Fun.protect
    ~finally:(fun () -> Netmodel.set_sim_latency_scale saved)
    (fun () ->
      let mpi = Mpi.create ~net:(test_net 1.59e-6) ~nranks:2 () in
      let port = Mpi.send_port mpi ~src:0 ~dst:1 ~tag:0 in
      let slot = Mpi.recv_slot mpi ~dst:1 ~src:0 ~tag:0 in
      let pair () =
        let t0 = Unix.gettimeofday () in
        Mpi.port_send port (Bytes.create 8);
        ignore (Mpi.slot_wait slot);
        Unix.gettimeofday () -. t0
      in
      let times = Array.init 50 (fun _ -> pair ()) in
      Array.sort compare times;
      let median = times.(25) in
      check_bool (Printf.sprintf "median %.1f us < 100 us" (median *. 1e6)) true
        (median < 1e-4))

let mpi_harness_sleep_free () =
  (* [dune runtest] must never stall on synthetic latency: the test entry
     point zeroes the wall-clock scale, so even a network with a huge
     per-message setup delivers instantly (the analytic [message_time] is
     unscaled — only the simulator's sleep is). *)
  check_bool "harness zeroes the wall-clock scale" true
    (Netmodel.sim_latency_scale () = 0.0);
  let net = test_net 10.0 in
  let mpi = Mpi.create ~net ~nranks:2 () in
  send mpi ~src:0 ~dst:1 ~tag:0 (Bytes.of_string "fast");
  let t0 = Unix.gettimeofday () in
  ignore (recv mpi ~dst:1 ~src:0 ~tag:0);
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool "delivered without sleeping" true (elapsed < 1.0);
  check_bool "model time unscaled" true
    (Netmodel.message_time net ~nranks:2 ~bytes:4 >= 10.0);
  check_bool "negative scale rejected" true
    (try Netmodel.set_sim_latency_scale (-1.0); false
     with Invalid_argument _ -> true)

let mpi_rank_bounds () =
  let mpi = Mpi.create ~nranks:2 () in
  check_bool "bad rank" true
    (try ignore (Mpi.send_port mpi ~src:0 ~dst:2 ~tag:0); false
     with Invalid_argument _ -> true);
  check_bool "bad receiver" true
    (try ignore (Mpi.recv_slot mpi ~dst:(-1) ~src:0 ~tag:0); false
     with Invalid_argument _ -> true)

(* Property: the lock-free mailboxes behave as the plain FIFO-and-counters
   model in [Oracles] — random send batches drained in send order deliver
   the same payloads (FIFO per (src, dst, tag)) and the same counters on
   both. *)
let mpi_parity_with_reference_property =
  qc ~count:80 "mailbox Mpi_sim == reference Mpi_sim_ref"
    QCheck.(
      list_of_size
        Gen.(int_range 1 40)
        (quad (int_range 0 3) (int_range 0 3) (int_range 0 2) (int_range 0 255)))
    (fun msgs ->
      let module Mpi_ref = Oracles.Mpi_sim_ref in
      let a = Mpi.create ~nranks:4 () in
      let b = Mpi_ref.create () in
      List.iteri
        (fun i (src, dst, tag, byte) ->
          let payload = Printf.sprintf "%d:%d" byte i in
          send a ~src ~dst ~tag (Bytes.of_string payload);
          Mpi_ref.send b ~src ~dst ~tag (Bytes.of_string payload))
        msgs;
      Mpi.pending_messages a = Mpi_ref.pending_messages b
      && Mpi.messages_sent a = Mpi_ref.messages_sent b
      && Mpi.bytes_sent a = Mpi_ref.bytes_sent b
      && List.for_all
           (fun (src, dst, tag, _) ->
             let pa = Bytes.to_string (recv a ~dst ~src ~tag) in
             Some pa = Option.map Bytes.to_string (Mpi_ref.recv b ~dst ~src ~tag))
           msgs
      && Mpi.pending_messages a = 0
      && Mpi_ref.pending_messages b = 0)

(* --- Decomp --- *)

let decomp_coords_roundtrip () =
  let d = Decomp.create ~global:[| 32; 32; 32 |] ~ranks_shape:[| 2; 3; 4 |] in
  for rank = 0 to d.Decomp.nranks - 1 do
    check_int "roundtrip" rank (Decomp.rank_of_coords d (Decomp.coords_of_rank d rank))
  done

let decomp_even_split () =
  let d = Decomp.create ~global:[| 8; 8 |] ~ranks_shape:[| 2; 2 |] in
  let offset, extent = Decomp.subdomain d ~rank:3 in
  Alcotest.(check (array int)) "offset" [| 4; 4 |] offset;
  Alcotest.(check (array int)) "extent" [| 4; 4 |] extent

let decomp_uneven_split () =
  let d = Decomp.create ~global:[| 10 |] ~ranks_shape:[| 3 |] in
  let extents = List.init 3 (fun r -> snd (Decomp.subdomain d ~rank:r)) in
  Alcotest.(check (list (array int))) "4,3,3" [ [| 4 |]; [| 3 |]; [| 3 |] ] extents

let decomp_covers () =
  List.iter
    (fun (global, shape) ->
      let d = Decomp.create ~global ~ranks_shape:shape in
      check_bool "partition" true (Decomp.covers_globally d))
    [
      ([| 10; 7 |], [| 3; 2 |]);
      ([| 16; 16; 16 |], [| 2; 2; 2 |]);
      ([| 13 |], [| 5 |]);
    ]

let decomp_neighbors () =
  let d = Decomp.create ~global:[| 8; 8 |] ~ranks_shape:[| 2; 2 |] in
  check_bool "right of 0 is 1" true (Decomp.neighbor d ~rank:0 ~dir:[| 0; 1 |] = Some 1);
  check_bool "down of 0 is 2" true (Decomp.neighbor d ~rank:0 ~dir:[| 1; 0 |] = Some 2);
  check_bool "boundary" true (Decomp.neighbor d ~rank:0 ~dir:[| -1; 0 |] = None);
  check_bool "diagonal" true (Decomp.neighbor d ~rank:0 ~dir:[| 1; 1 |] = Some 3)

let decomp_directions () =
  check_int "2d faces" 4 (List.length (Decomp.directions ~ndim:2 ~faces_only:true));
  check_int "2d all" 8 (List.length (Decomp.directions ~ndim:2 ~faces_only:false));
  check_int "3d faces" 6 (List.length (Decomp.directions ~ndim:3 ~faces_only:true));
  check_int "3d all" 26 (List.length (Decomp.directions ~ndim:3 ~faces_only:false))

let decomp_dir_index_unique () =
  let dirs = Decomp.directions ~ndim:3 ~faces_only:false in
  let idxs = List.map (Decomp.dir_index ~ndim:3) dirs in
  check_int "unique tags" (List.length dirs) (List.length (List.sort_uniq compare idxs))

let decomp_auto_shape () =
  Alcotest.(check (array int)) "28 over 2d" [| 7; 4 |] (Decomp.auto_shape ~nranks:28 ~ndim:2);
  Alcotest.(check (array int)) "64 over 3d" [| 4; 4; 4 |] (Decomp.auto_shape ~nranks:64 ~ndim:3);
  check_int "product preserved" 28
    (Array.fold_left ( * ) 1 (Decomp.auto_shape ~nranks:28 ~ndim:3))

let decomp_validation () =
  check_bool "too many procs" true
    (try ignore (Decomp.create ~global:[| 4 |] ~ranks_shape:[| 8 |]); false
     with Invalid_argument _ -> true)

(* Property: under periodic wrap every direction has a neighbour, and
   stepping back along the opposite direction returns to the start — the
   invariant the halo tag matching (sender's direction index, receiver
   matches the opposite) relies on. *)
let decomp_periodic_inverse_property =
  qc ~count:200 "periodic neighbor inverted by opposite direction"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 3) (pair (int_range 1 4) (int_range (-1) 1)))
        (int_range 0 1000))
    (fun (dims, rank_seed) ->
      let ranks_shape = Array.of_list (List.map fst dims) in
      let dir = Array.of_list (List.map snd dims) in
      QCheck.assume (Array.exists (fun v -> v <> 0) dir);
      (* Every dimension needs at least as many points as processes. *)
      let global = Array.map (fun r -> 4 * r) ranks_shape in
      let d = Decomp.create ~global ~ranks_shape in
      let rank = rank_seed mod d.Decomp.nranks in
      let opposite = Array.map (fun v -> -v) dir in
      match Decomp.neighbor ~periodic:true d ~rank ~dir with
      | None -> false
      | Some nb -> Decomp.neighbor ~periodic:true d ~rank:nb ~dir:opposite = Some rank)

(* Degenerate and large rank grids: pencils (1xN / Nx1), primes and the
   64x64 production shape must still partition exactly, keep neighbor
   symmetry, report a geometry-consistent temporal depth, and tile into
   node blocks. *)
let decomp_degenerate_and_large_shapes () =
  List.iter
    (fun (ranks_shape, rpn) ->
      let global = Array.map (fun r -> r * 3) ranks_shape in
      let d = Decomp.create ~global ~ranks_shape in
      check_bool "covers globally" true (Decomp.covers_globally d);
      let ndim = Array.length ranks_shape in
      List.iter
        (fun dir ->
          let opposite = Array.map (fun v -> -v) dir in
          for rank = 0 to min (d.Decomp.nranks - 1) 255 do
            match Decomp.neighbor d ~rank ~dir with
            | None -> ()
            | Some nb ->
                if Decomp.neighbor d ~rank:nb ~dir:opposite <> Some rank then
                  Alcotest.failf "asymmetric neighbor at rank %d" rank
          done)
        (Decomp.directions ~ndim ~faces_only:false);
      let radius = Array.make ndim 1 in
      let depth = Decomp.max_uniform_depth d ~radius in
      let min_extent = Decomp.min_extent d in
      check_bool "depth >= 1" true (depth >= 1);
      check_bool "depth fits thinnest rank" true
        (Array.for_all (fun e -> depth <= e) min_extent);
      let core = Decomp.core_shape ~ranks_shape ~ranks_per_node:rpn in
      Array.iteri
        (fun i c ->
          if ranks_shape.(i) mod c <> 0 then
            Alcotest.failf "core %d does not divide ranks dim %d" c i)
        core;
      check_bool "core within node" true (Array.fold_left ( * ) 1 core <= rpn))
    [
      ([| 1; 16 |], 4);
      ([| 16; 1 |], 4);
      ([| 7; 1 |], 8);
      ([| 13; 13 |], 8);
      ([| 1; 31 |], 4);
      ([| 64; 64 |], 8);
    ]

(* Property: random rank shapes, including pencils and primes, always
   partition the global grid exactly, and a rank's subdomain extents never
   differ from the floor extent by more than one. *)
let decomp_shape_partition_property =
  qc ~count:150 "random rank shapes partition exactly"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 3) (int_range 1 64))
        (int_range 0 10_000))
    (fun (dims, rank_seed) ->
      let ranks_shape = Array.of_list dims in
      let global = Array.map (fun r -> (r * 2) + 1) ranks_shape in
      let d = Decomp.create ~global ~ranks_shape in
      let rank = rank_seed mod d.Decomp.nranks in
      let _, extent = Decomp.subdomain d ~rank in
      let floor_extent = Decomp.min_extent d in
      Decomp.covers_globally d
      && Array.for_all2
           (fun e f -> e = f || e = f + 1)
           extent floor_extent
      && Decomp.max_uniform_depth d ~radius:(Array.map (fun _ -> 1) ranks_shape)
         >= 1)

(* --- Halo exchange plans --- *)

(* One whole exchange through compiled plans: every rank posts, then every
   rank completes. *)
let exchange ?periodic mpi decomp ~grids ~width ~faces_only =
  let plans =
    Array.mapi
      (fun rank grid -> Halo.plan ?periodic mpi decomp ~rank ~grid ~width ~faces_only)
      grids
  in
  Array.iteri (fun rank p -> Halo.post p [| grids.(rank) |]) plans;
  Array.iteri (fun rank p -> Halo.complete p [| grids.(rank) |]) plans

let halo_pack_unpack_roundtrip () =
  (* Two ranks stacked along dimension 0: a = rows 0..3, b = rows 4..7. *)
  let d = Decomp.create ~global:[| 8; 6 |] ~ranks_shape:[| 2; 1 |] in
  let a = Grid.create ~shape:[| 4; 6 |] ~halo:[| 2; 2 |] in
  let b = Grid.create ~shape:[| 4; 6 |] ~halo:[| 2; 2 |] in
  Grid.fill a (fun c -> float_of_int ((c.(0) * 10) + c.(1)) +. 0.5);
  exchange (Mpi.create ~nranks:2 ()) d ~grids:[| a; b |] ~width:[| 2; 2 |]
    ~faces_only:true;
  (* a's rows 2..3 must now live in b's halo rows -2..-1. *)
  for r = 0 to 1 do
    for c = 0 to 5 do
      check_float "transferred" (Grid.get a [| 2 + r; c |]) (Grid.get b [| r - 2; c |])
    done
  done

let halo_payload_sizes () =
  let g = Grid.create ~shape:[| 4; 6 |] ~halo:[| 1; 1 |] in
  check_int "face row" (1 * 6) (Halo.payload_elems g ~dir:[| 1; 0 |] ~width:[| 1; 1 |]);
  check_int "face col" (4 * 1) (Halo.payload_elems g ~dir:[| 0; -1 |] ~width:[| 1; 1 |]);
  check_int "corner" 1 (Halo.payload_elems g ~dir:[| 1; 1 |] ~width:[| 1; 1 |])

(* A single periodic rank: every face is a self-neighbour. *)
let self_plan ?(faces_only = true) mpi (g : Grid.t) ~width =
  let decomp =
    Decomp.create ~global:g.Grid.shape
      ~ranks_shape:(Array.map (fun _ -> 1) g.Grid.shape)
  in
  Halo.plan ~periodic:true mpi decomp ~rank:0 ~grid:g ~width ~faces_only

(* Ownership passes on send, so the copy happens at packing: the bytes a
   neighbour receives are the ones [Halo.post] packed, even when the
   sender's grid changes before they are claimed. *)
let mpi_payload_isolated () =
  let g = Grid.create ~shape:[| 4; 5 |] ~halo:[| 1; 1 |] in
  Grid.fill g (fun c -> float_of_int ((c.(0) * 10) + c.(1)) +. 0.5);
  let expected = Grid.copy g in
  let p = self_plan (Mpi.create ~nranks:1 ()) g ~width:[| 1; 1 |] in
  Halo.post p [| g |];
  Grid.fill g (fun _ -> -1.0);
  Halo.complete p [| g |];
  let q = self_plan (Mpi.create ~nranks:1 ()) expected ~width:[| 1; 1 |] in
  Halo.post q [| expected |];
  Halo.complete q [| expected |];
  Grid.fill expected (fun _ -> -1.0);
  check_bool "halo holds the packed bytes" true (g.Grid.data = expected.Grid.data)

let halo_unpack_size_mismatch () =
  let g = Grid.create ~shape:[| 4; 4 |] ~halo:[| 1; 1 |] in
  let mpi = Mpi.create ~nranks:1 () in
  let p = self_plan mpi g ~width:[| 1; 1 |] in
  List.iter
    (fun dir ->
      send mpi ~src:0 ~dst:0 ~tag:(Decomp.dir_index ~ndim:2 dir) (Bytes.create 3))
    (Decomp.directions ~ndim:2 ~faces_only:true);
  check_bool "size checked" true
    (try Halo.complete p [| g |]; false with Invalid_argument _ -> true)

(* A plan runs only on grids of the geometry it was compiled for: the
   runs are flat offsets, so a different halo would shift every one. *)
let halo_plan_geometry_guard () =
  let g = Grid.create ~shape:[| 4; 4 |] ~halo:[| 1; 1 |] in
  let p = self_plan (Mpi.create ~nranks:1 ()) g ~width:[| 1; 1 |] in
  let rejects grid =
    try Halo.post p [| grid |]; false with Invalid_argument _ -> true
  in
  check_bool "other halo (same interior)" true
    (rejects (Grid.create ~shape:[| 4; 4 |] ~halo:[| 2; 1 |]));
  check_bool "other shape" true (rejects (Grid.create ~shape:[| 4; 5 |] ~halo:[| 1; 1 |]));
  check_bool "complete checks too" true
    (try Halo.complete p [| g; Grid.create ~shape:[| 5; 4 |] ~halo:[| 1; 1 |] |]; false
     with Invalid_argument _ -> true)

let halo_corner_roundtrip () =
  (* 2x2 ranks of 5x4: rank 3's low corner halo comes from rank 0. *)
  let d = Decomp.create ~global:[| 10; 8 |] ~ranks_shape:[| 2; 2 |] in
  let grids =
    Array.init 4 (fun rank ->
        let g = Grid.create ~shape:[| 5; 4 |] ~halo:[| 2; 2 |] in
        Grid.fill g (fun c -> float_of_int ((rank * 100) + (c.(0) * 7) + c.(1)) +. 0.25);
        g)
  in
  (* Diagonal (corner) transfer with asymmetric width. *)
  exchange (Mpi.create ~nranks:4 ()) d ~grids ~width:[| 2; 1 |] ~faces_only:false;
  for r = 0 to 1 do
    check_float "corner cell" (Grid.get grids.(0) [| 3 + r; 3 |])
      (Grid.get grids.(3) [| r - 2; -1 |])
  done

(* Property: the compiled run lists agree with the cell-at-a-time oracle
   on random shapes, halos, widths and one or two grids per payload. A
   single periodic rank sends every direction (faces, edges, corners) to
   itself, so each payload can be read off its channel and compared with
   the naive packs, and a full self-exchange compared with naive
   unpacks. *)
let halo_blit_matches_naive_property =
  qc ~count:120 "blit pack/unpack == naive reference"
    QCheck.(
      pair (int_range 1 2)
        (list_of_size
           Gen.(int_range 1 3)
           (triple (int_range 3 8) (int_range 1 3) (int_range 1 3))))
    (fun (ngrids, dims) ->
      let shape = Array.of_list (List.map (fun (n, _, _) -> n) dims) in
      let halo = Array.of_list (List.map (fun (_, h, _) -> h) dims) in
      let width = Array.of_list (List.map (fun (_, h, w) -> min w h) dims) in
      let nd = Array.length shape in
      let grids =
        Array.init ngrids (fun i ->
            let g = Grid.create ~shape ~halo in
            Grid.fill_extended g (fun c ->
                let acc = ref (1.0 +. float_of_int i) in
                Array.iteri
                  (fun d k -> acc := !acc +. (float_of_int ((d + 3) * k) *. 0.21))
                  c;
                !acc);
            g)
      in
      let dirs = Decomp.directions ~ndim:nd ~faces_only:false in
      let naive_payload dir =
        Bytes.concat Bytes.empty
          (List.map (fun g -> Oracles.pack_naive g ~dir ~width) (Array.to_list grids))
      in
      let mpi = Mpi.create ~nranks:1 () in
      Halo.post (self_plan ~faces_only:false mpi grids.(0) ~width) grids;
      let payloads_ok =
        List.for_all
          (fun dir ->
            let tag = Decomp.dir_index ~ndim:nd dir in
            Bytes.equal (naive_payload dir) (recv mpi ~dst:0 ~src:0 ~tag))
          dirs
      in
      let fresh = Array.map Grid.copy grids and oracle = Array.map Grid.copy grids in
      let p = self_plan ~faces_only:false (Mpi.create ~nranks:1 ()) grids.(0) ~width in
      Halo.post p fresh;
      Halo.complete p fresh;
      List.iter
        (fun dir ->
          let opposite = Array.map (fun v -> -v) dir in
          Array.iteri
            (fun i g ->
              Oracles.unpack_naive oracle.(i) ~dir ~width
                (Oracles.pack_naive g ~dir:opposite ~width))
            grids)
        dirs;
      payloads_ok
      && Array.for_all2 (fun (a : Grid.t) (b : Grid.t) -> a.Grid.data = b.Grid.data)
           fresh oracle)

(* Property: the copy stubs move each slab byte for byte, both ways. A
   single periodic rank sends every direction (faces, edges, corners) to
   itself; extents down to one cell and a last-dimension width of one
   make runs of a single element, and one to three states per payload
   stand for a deeper temporal block's message. Each payload [Halo.post]
   packs must equal the per-element little-endian encoding; sent back
   unchanged, [Halo.complete] must unpack exactly the decoded values into
   the outer slabs. *)
let halo_copy_stub_roundtrip_property =
  qc ~count:150 "copy stubs round trip == little-endian encoding"
    QCheck.(
      pair (int_range 1 3)
        (list_of_size
           Gen.(int_range 1 3)
           (triple (int_range 1 7) (int_range 1 3) (int_range 0 1))))
    (fun (nstates, dims) ->
      let width = Array.of_list (List.map (fun (_, w, _) -> w) dims) in
      let shape = Array.of_list (List.map (fun (n, w, _) -> max n w) dims) in
      let halo = Array.of_list (List.map (fun (_, w, extra) -> w + extra) dims) in
      let nd = Array.length shape in
      let states =
        Array.init nstates (fun i ->
            let g = Grid.create ~shape ~halo in
            Grid.fill_extended g (fun c ->
                let h = ref (float_of_int (i + 1)) in
                Array.iteri (fun d k -> h := (!h *. 1.618) +. sin (float_of_int ((7 * d) + k))) c;
                !h);
            g)
      in
      let mpi = Mpi.create ~nranks:1 () in
      let p = self_plan ~faces_only:false mpi states.(0) ~width in
      let dirs = Decomp.directions ~ndim:nd ~faces_only:false in
      let tag dir = Decomp.dir_index ~ndim:nd dir in
      Halo.post p states;
      let packed = List.map (fun dir -> (dir, recv mpi ~dst:0 ~src:0 ~tag:(tag dir))) dirs in
      let encoded dir =
        Bytes.concat Bytes.empty
          (List.map (fun g -> Oracles.pack_naive g ~dir ~width) (Array.to_list states))
      in
      let packs_ok = List.for_all (fun (dir, b) -> Bytes.equal b (encoded dir)) packed in
      (* The payload packed toward [dir] arrives on the link facing the
         opposite way, as a neighbour's would. *)
      let received = Array.map Grid.copy states and oracle = Array.map Grid.copy states in
      List.iter (fun (dir, b) -> send mpi ~src:0 ~dst:0 ~tag:(tag dir) (Bytes.copy b)) packed;
      Halo.complete p received;
      List.iter
        (fun (dir, b) ->
          let opposite = Array.map (fun v -> -v) dir in
          let slab = Bytes.length b / nstates in
          Array.iteri
            (fun i g -> Oracles.unpack_naive g ~dir:opposite ~width (Bytes.sub b (i * slab) slab))
            oracle)
        packed;
      let same_bits (a : Grid.t) (b : Grid.t) =
        Array.for_all2
          (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
          a.Grid.data b.Grid.data
      in
      packs_ok && Array.for_all2 same_bits received oracle)

let halo_exchange_fills_outer () =
  let d = Decomp.create ~global:[| 8; 8 |] ~ranks_shape:[| 2; 2 |] in
  let mpi = Mpi.create ~nranks:4 () in
  let grids =
    Array.init 4 (fun rank ->
        let _, extent = Decomp.subdomain d ~rank in
        let g = Grid.create ~shape:extent ~halo:[| 1; 1 |] in
        Grid.fill g (fun _ -> float_of_int (rank + 1));
        g)
  in
  exchange mpi d ~grids ~width:[| 1; 1 |] ~faces_only:false;
  (* Rank 0's right outer halo holds rank 1's values; its corner holds 3's. *)
  check_float "right halo from rank 1" 2.0 (Grid.get grids.(0) [| 0; 4 |]);
  check_float "bottom halo from rank 2" 3.0 (Grid.get grids.(0) [| 4; 0 |]);
  check_float "corner from rank 3" 4.0 (Grid.get grids.(0) [| 4; 4 |]);
  (* Physical boundary stays zero. *)
  check_float "physical boundary" 0.0 (Grid.get grids.(0) [| -1; 0 |]);
  check_int "no leftover messages" 0 (Mpi.pending_messages mpi)

(* --- Distributed runtime --- *)

let distributed_star_exact () =
  let _, st = stencil_3d7pt ~n:12 () in
  check_float "bit-identical" 0.0 (Distributed.validate ~steps:4 ~ranks_shape:[| 2; 2; 2 |] st)

let distributed_box_corners_exact () =
  let _, st = stencil_2d9pt_box ~m:14 ~n:18 () in
  check_float "bit-identical" 0.0 (Distributed.validate ~steps:4 ~ranks_shape:[| 2; 3 |] st)

let distributed_uneven_exact () =
  let _, st = stencil_2d9pt_box ~m:13 ~n:17 () in
  check_float "uneven blocks" 0.0 (Distributed.validate ~steps:3 ~ranks_shape:[| 3; 2 |] st)

let distributed_wave_exact () =
  let st = stencil_wave2d ~n:16 () in
  check_float "state terms survive exchange" 0.0
    (Distributed.validate ~steps:5 ~ranks_shape:[| 2; 2 |] st)

let distributed_single_rank_degenerate () =
  let _, st = stencil_3d7pt ~n:8 () in
  check_float "1 rank" 0.0 (Distributed.validate ~steps:3 ~ranks_shape:[| 1; 1; 1 |] st)

let distributed_wide_halo_exact () =
  let grid = Msc_frontend.Builder.def_tensor_2d ~time_window:2 ~halo:3 "B" Msc_ir.Dtype.F64 18 18 in
  let k = Msc_frontend.Builder.star_kernel ~name:"S" ~radius:3 grid in
  let st = Msc_frontend.Builder.two_step ~name:"2d13pt_star" k in
  check_float "radius-3 exchange" 0.0 (Distributed.validate ~steps:3 ~ranks_shape:[| 2; 2 |] st)

let distributed_message_accounting () =
  let _, st = stencil_3d7pt ~n:12 () in
  let dist = Distributed.create ~ranks_shape:[| 2; 2; 2 |] st in
  let before = Mpi.messages_sent (Distributed.mpi dist) in
  (* 8 ranks, faces only (star): each rank has 3 neighbours -> 24 msgs. *)
  Distributed.step dist;
  check_int "24 messages per exchange" (before + 24)
    (Mpi.messages_sent (Distributed.mpi dist))

let distributed_gather_shape () =
  let _, st = stencil_3d7pt ~n:12 () in
  let dist = Distributed.create ~ranks_shape:[| 2; 2; 1 |] st in
  Distributed.run dist 2;
  let g = Distributed.gather dist in
  Alcotest.(check (array int)) "global shape" [| 12; 12; 12 |] g.Grid.shape

let distributed_property =
  qc ~count:12 "distributed == single for random rank shapes"
    QCheck.(pair (int_range 1 3) (int_range 1 3))
    (fun (px, py) ->
      let _, st = stencil_2d9pt_box ~m:12 ~n:12 () in
      Distributed.validate ~steps:2 ~ranks_shape:[| px; py |] st = 0.0)

(* One differential property over the distributed configuration matrix:
   every temporal depth (1 and 2) x boundary condition (Dirichlet 1.5,
   Periodic, and Reflect where the depth supports it) x
   stencil shape (star: faces only; box: corners too) x decomposition (an
   uneven 13x10 on 3x2, and 1x3 whose single-rank dimension makes every
   periodic rank its own neighbour) must gather the single-grid result
   bit for bit. *)
let distributed_differential_matrix () =
  let star =
    let grid =
      Msc_frontend.Builder.def_tensor_2d ~time_window:2 ~halo:1 "B" Msc_ir.Dtype.F64 13 10
    in
    Msc_frontend.Builder.two_step ~name:"2d5pt_star"
      (Msc_frontend.Builder.star_kernel ~name:"S" ~radius:1 grid)
  in
  let _, box = stencil_2d9pt_box ~m:13 ~n:10 () in
  let same_bits (a : Grid.t) (b : Grid.t) =
    let ok = ref true in
    Grid.iter_interior a (fun c ->
        if Int64.bits_of_float (Grid.get a c) <> Int64.bits_of_float (Grid.get b c) then
          ok := false);
    !ok
  in
  let steps = 4 in
  List.iter
    (fun (sname, st) ->
      List.iter
        (fun (bname, bc) ->
          let single = Msc_exec.Runtime.create ~bc st in
          Msc_exec.Runtime.run single steps;
          List.iter
            (fun (ename, depth) ->
              List.iter
                (fun ranks_shape ->
                  let label =
                    Printf.sprintf "%s %s %s %dx%d" sname bname ename ranks_shape.(0)
                      ranks_shape.(1)
                  in
                  let config = cfg ~depth () in
                  match Distributed.create ~config ~bc ~ranks_shape st with
                  | exception Invalid_argument _ ->
                      check_bool (label ^ ": only Reflect x depth > 1 is rejected") true
                        (bc = Msc_exec.Bc.Reflect && depth = 2)
                  | dist ->
                      Distributed.run dist steps;
                      check_bool (label ^ ": gather bit-identical") true
                        (same_bits (Msc_exec.Runtime.current single) (Distributed.gather dist));
                      check_float (label ^ ": validate") 0.0
                        (Distributed.validate ~config ~bc ~steps ~ranks_shape st);
                      check_int (label ^ ": no message left over") 0
                        (Mpi.pending_messages (Distributed.mpi dist)))
                [ [| 3; 2 |]; [| 1; 3 |] ])
            [ ("depth1", 1); ("depth2", 2) ];
          (* Cross-constructor parity: the one-stage graph of [st] takes the
             stencil's path — the same traffic after the initial exchange
             and after every step, and the same gathered bits. Graphs step
             at depth 1 only. *)
          List.iter
            (fun ename ->
              List.iter
                (fun ranks_shape ->
                  let label =
                    Printf.sprintf "%s %s %s %dx%d graph parity" sname bname ename
                      ranks_shape.(0) ranks_shape.(1)
                  in
                  let config = cfg () in
                  let dist = Distributed.create ~config ~bc ~ranks_shape st in
                  let graph =
                    Distributed.create_graph ~config ~bc ~ranks_shape
                      (Msc_graph.Graph.single st)
                  in
                  let traffic d =
                    let mpi = Distributed.mpi d in
                    (Mpi.messages_sent mpi, Mpi.bytes_sent mpi)
                  in
                  for step = 0 to steps do
                    if step > 0 then begin
                      Distributed.step dist;
                      Distributed.step graph
                    end;
                    check_bool
                      (Printf.sprintf "%s: same traffic after step %d" label step)
                      true
                      (traffic dist = traffic graph)
                  done;
                  check_bool (label ^ ": same gathered bits") true
                    (same_bits (Distributed.gather dist) (Distributed.gather graph)))
                [ [| 3; 2 |]; [| 1; 3 |] ])
            [ "depth1" ])
        [
          ("dirichlet1.5", Msc_exec.Bc.Dirichlet 1.5);
          ("periodic", Msc_exec.Bc.Periodic);
          ("reflect", Msc_exec.Bc.Reflect);
        ])
    [ ("star", star); ("box", box) ]

(* A network that holds each message [slow] picks in flight for
   [latency_s] of wall clock and delivers every other one at once. The
   harness zeroes the wall-clock latency scale, so [with_wallclock_latency]
   restores it around the run. *)
let delay_net ?(slow = fun _ -> true) latency_s =
  {
    Netmodel.name = "test delay";
    alpha_s = latency_s;
    beta_gbs = infinity;
    congestion_at =
      (fun ~nranks:_ ~messages_per_rank:_ ~bytes_per_message ->
        if slow bytes_per_message then 1.0 else 0.0);
  }

let with_wallclock_latency f =
  let saved = Netmodel.sim_latency_scale () in
  Netmodel.set_sim_latency_scale 1.0;
  Fun.protect ~finally:(fun () -> Netmodel.set_sim_latency_scale saved) f

(* Steady-state exchange cost: once every plan is compiled and every
   channel and payload buffer exists, a step allocates (almost) nothing —
   payloads ping-pong between neighbours, the wire arrays are refilled in
   place, the ready-first pass polls its messages without an option, and
   the per-task checks and sweeps run closure-free. Pinned at 16 words per
   rank at depths 1 and 2, payloads counted, on both paths of the
   overlapped step. The compiled backend sweeps without allocating per
   point; the interpreter does, so without a C toolchain there is nothing
   to pin. The sequential pool runs every rank on this domain, whose
   minor-heap counter is exact. A full major collection first empties the
   minor heap, so no collection (and no finaliser left by another test)
   runs inside the measured steps. On the ready path the network model is
   attached and the wall-clock scale (zeroed by the harness) set to a tiny
   non-zero value, so every send reads the clock and stamps its arrival
   through the port's flight-time memo without anyone sleeping, and every
   rank's messages have arrived when it is reached. On the deferred path a
   5 ms flight keeps every message in flight, so every rank splits and
   waits. *)
let distributed_step_allocation_pinned () =
  let _, st = stencil_2d9pt_box ~m:64 ~n:64 () in
  let saved = Netmodel.sim_latency_scale () in
  Fun.protect ~finally:(fun () -> Netmodel.set_sim_latency_scale saved) (fun () ->
  List.iter
    (fun (path, net, scale) ->
      Netmodel.set_sim_latency_scale scale;
      List.iter
        (fun depth ->
          let label = Printf.sprintf "%s, depth %d" path depth in
          let dist =
            Distributed.create
              ~config:(cfg ~backend:Msc_exec.Backend.Compiled_c ~depth ())
              ~net ~ranks_shape:[| 8; 8 |] st
          in
          let report =
            Msc_exec.Runtime.backend_report (Distributed.rank_runtime dist ~rank:0)
          in
          if report.Msc_exec.Runtime.effective = Msc_exec.Backend.Compiled_c then begin
            (* Warm every channel's segment ring and payload buffer. *)
            Distributed.run dist 8;
            Gc.full_major ();
            let w0 = Gc.minor_words () in
            Distributed.run dist 4;
            let words = (Gc.minor_words () -. w0) /. 4.0 in
            check_bool
              (Printf.sprintf "%s: %.0f words per step (%.2f per rank) <= 16 per rank"
                 label words (words /. 64.0))
              true
              (words <= 16.0 *. 64.0)
          end)
        [ 1; 2 ])
    [
      ("ready", Netmodel.sunway_taihulight, 1e-9);
      ("deferred", delay_net 5e-3, 1.0);
    ])

(* --- The overlapped protocol at depth 1 --- *)

(* The single-grid runtime after [steps] steps: the oracle every
   distributed run is checked against. *)
let single_grid ?bc st steps =
  let single = Msc_exec.Runtime.create ?bc st in
  Msc_exec.Runtime.run single steps;
  Msc_exec.Runtime.current single

(* Run depths 1 and 2 over every stencil of the paper's suite (small grids,
   2x2(x2) process grids) and demand gathered states bit-identical to each
   other and to the single grid — overlapping the exchange with the
   interior sweep, and deepening the block, must not change a bit. *)
let depths_bit_identical_across_suite () =
  List.iter
    (fun (b : Msc_benchsuite.Suite.bench) ->
      let dims = Array.make b.Msc_benchsuite.Suite.ndim (max 12 (4 * b.Msc_benchsuite.Suite.radius)) in
      let ranks_shape = Array.make b.Msc_benchsuite.Suite.ndim 2 in
      let st = Msc_benchsuite.Suite.stencil ~dims b in
      let run depth =
        let dist = Distributed.create ~config:(cfg ~depth ()) ~ranks_shape st in
        Distributed.run dist 2;
        Distributed.gather dist
      in
      let depth1 = run 1 in
      check_bool
        (b.Msc_benchsuite.Suite.name ^ ": depth 2 == depth 1 bit-exact")
        true
        ((run 2).Grid.data = depth1.Grid.data);
      check_float
        (b.Msc_benchsuite.Suite.name ^ ": depth 1 == single grid")
        0.0
        (Grid.max_rel_error ~reference:(single_grid st 2) depth1))
    Msc_benchsuite.Suite.all

(* Scale-out criterion: growing the process grid from 2x2 to 4x4 (thin
   ranks, corner messages everywhere, 16 mailboxes in flight) must leave
   depths 1 and 2 bit-identical to each other and to the single-rank
   reference. *)
let depths_bit_identical_4x4 () =
  let _, st = stencil_2d9pt_box ~m:20 ~n:24 () in
  let run depth =
    let dist =
      Distributed.create ~config:(cfg ~depth ()) ~ranks_shape:[| 4; 4 |] st
    in
    Distributed.run dist 3;
    Distributed.gather dist
  in
  let depth1 = run 1 in
  check_bool "depth 2 == depth 1 at 4x4" true ((run 2).Grid.data = depth1.Grid.data);
  check_float "4x4 == single grid" 0.0
    (Grid.max_rel_error ~reference:(single_grid st 3) depth1)

let depths_match_single_grid () =
  let _, st = stencil_3d7pt ~n:12 () in
  List.iter
    (fun depth ->
      check_float (Printf.sprintf "depth %d vs single" depth) 0.0
        (Distributed.validate ~config:(cfg ~depth ()) ~steps:4 ~ranks_shape:[| 2; 2; 2 |] st))
    [ 1; 2 ]

let overlapped_periodic_exact () =
  let st = stencil_wave2d ~n:16 () in
  check_float "periodic wrap through the overlapped protocol" 0.0
    (Distributed.validate ~config:(cfg ()) ~steps:4
       ~bc:Msc_exec.Bc.Periodic ~ranks_shape:[| 2; 2 |] st)

(* Ranks dispatched concurrently over a real worker pool must agree with
   the single grid bit for bit, whatever the pool size: each worker steps
   one contiguous block of ranks, so pools of 1, 2, 3 and 5 workers over
   6 and 9 ranks give even, uneven and single-rank blocks, and 5 workers
   over 3 ranks leave some workers an empty block. *)
let pool_parallel_exact depths =
  let _, st = stencil_2d9pt_box ~m:14 ~n:18 () in
  List.iter
    (fun workers ->
      let pool = Msc_util.Domain_pool.create workers in
      Fun.protect
        ~finally:(fun () -> Msc_util.Domain_pool.shutdown pool)
        (fun () ->
          List.iter
            (fun (bc_label, bc) ->
              let single = single_grid ~bc st 5 in
              List.iter
                (fun depth ->
                  List.iter
                    (fun ranks_shape ->
                      let dist =
                        Distributed.create ~config:(cfg ~depth ~pool ()) ~bc ~ranks_shape st
                      in
                      Distributed.run dist 5;
                      check_float
                        (Printf.sprintf "depth %d %s, %d workers, %dx%d ranks: bit-identical"
                           depth bc_label workers ranks_shape.(0) ranks_shape.(1))
                        0.0
                        (Grid.max_rel_error ~reference:single (Distributed.gather dist)))
                    [ [| 2; 3 |]; [| 3; 3 |]; [| 1; 3 |] ])
                depths)
            [ ("dirichlet", Msc_exec.Bc.Dirichlet 0.0); ("periodic", Msc_exec.Bc.Periodic) ]))
    [ 1; 2; 3; 5 ]

let overlapped_pool_parallel_exact () = pool_parallel_exact [ 1 ]

(* Only the messages between ranks of different workers cross cores: the
   8x8 box exchange posts 420 messages a step, and contiguous rank blocks
   on 2 workers split it along one row boundary of ranks (8 + 7 + 7
   messages each way). One worker owns every rank. *)
let overlapped_cross_worker_messages_traced () =
  let _, st = stencil_2d9pt_box ~m:32 ~n:32 () in
  List.iter
    (fun (workers, expected) ->
      let pool = Msc_util.Domain_pool.create workers in
      Fun.protect
        ~finally:(fun () -> Msc_util.Domain_pool.shutdown pool)
        (fun () ->
          let trace = Msc_trace.create () in
          let dist =
            Distributed.create ~config:(cfg ~pool ()) ~trace ~ranks_shape:[| 8; 8 |] st
          in
          let m0 = Mpi.messages_sent (Distributed.mpi dist) in
          Distributed.run dist 2;
          check_int "420 messages a step" 840 (Mpi.messages_sent (Distributed.mpi dist) - m0);
          let total =
            List.find (fun (c : Msc_trace.total) -> c.Msc_trace.counter = "dist.cross_worker_messages")
              (Msc_trace.totals trace)
          in
          check_int (Printf.sprintf "%d workers: recorded each step" workers) 2
            total.Msc_trace.count;
          check_float (Printf.sprintf "%d workers: cross-worker messages" workers)
            (float_of_int (2 * expected)) total.Msc_trace.sum))
    [ (1, 0); (2, 44) ]

(* A narrow rank (extent <= 2*radius somewhere) has an empty interior
   phase: every cell is boundary shell. The split must stay exact. *)
let overlapped_thin_rank_exact () =
  let grid = Msc_frontend.Builder.def_tensor_2d ~time_window:2 ~halo:3 "B" Msc_ir.Dtype.F64 12 8 in
  let k = Msc_frontend.Builder.star_kernel ~name:"S" ~radius:3 grid in
  let st = Msc_frontend.Builder.two_step ~name:"thin" k in
  check_float "all-shell ranks" 0.0
    (Distributed.validate ~config:(cfg ()) ~steps:3 ~ranks_shape:[| 2; 2 |] st)

let spans_named trace phase =
  List.filter_map
    (fun (e : Msc_trace.event) ->
      match e with
      | Msc_trace.Span { name; tid; _ } when name = phase -> Some tid
      | _ -> None)
    (Msc_trace.events trace)

(* The sum and the count of one trace counter. *)
let counter_total trace name =
  match
    List.find_opt (fun (c : Msc_trace.total) -> c.Msc_trace.counter = name)
      (Msc_trace.totals trace)
  with
  | Some c -> (c.Msc_trace.sum, c.Msc_trace.count)
  | None -> (0.0, 0)

(* A 100 ms flight keeps every message in flight while the sequential
   pool tries the four ranks, so every rank takes the interior/shell
   split. *)
let overlapped_traces_overlap_window () =
  with_wallclock_latency (fun () ->
      let trace = Msc_trace.create () in
      let _, st = stencil_3d7pt ~n:12 () in
      let dist =
        Distributed.create ~net:(delay_net 0.1) ~trace ~ranks_shape:[| 2; 2; 1 |] st
      in
      Distributed.run dist 2;
      (* One overlap window and one shell sub-sweep per rank per step. *)
      check_int "halo.overlap spans" 8 (List.length (spans_named trace "halo.overlap"));
      check_int "halo.shell spans" 8 (List.length (spans_named trace "halo.shell"));
      Alcotest.(check (list int)) "overlap windows tagged per rank" [ 0; 1; 2; 3 ]
        (List.sort_uniq compare (spans_named trace "halo.overlap"));
      check_float "dist.overlapped_ranks" 8.0
        (fst (counter_total trace "dist.overlapped_ranks")))

(* With instant delivery on the sequential pool, every rank's messages
   have arrived by the time its worker reaches it: no rank splits, and the
   whole-rank sweeps give the single grid's bits. *)
let overlapped_ready_ranks_sweep_whole () =
  let _, st = stencil_2d9pt_box ~m:14 ~n:18 () in
  List.iter
    (fun depth ->
      let trace = Msc_trace.create () in
      let dist =
        Distributed.create ~config:(cfg ~depth ()) ~trace ~ranks_shape:[| 3; 3 |] st
      in
      Distributed.run dist 4;
      let label = Printf.sprintf "depth %d" depth in
      let split, exchanges = counter_total trace "dist.overlapped_ranks" in
      check_int (label ^ ": one count per exchange") (4 / depth) exchanges;
      check_float (label ^ ": no rank split") 0.0 split;
      check_int (label ^ ": no halo.overlap span") 0
        (List.length (spans_named trace "halo.overlap"));
      check_int (label ^ ": no halo.shell span") 0
        (List.length (spans_named trace "halo.shell"));
      check_float (label ^ ": bit-identical") 0.0
        (Grid.max_rel_error ~reference:(single_grid st 4) (Distributed.gather dist)))
    [ 1; 2 ]

(* Both paths in one exchange. 14x18 over 3x3 ranks gives rank rows of
   5, 5 and 4 cells, so only a 5-row rank's column slabs carry a multiple
   of 5 doubles (40 B at depth 1, 160 B at depth 2; every other slab is
   32, 48, 64, 128 or 192 B or a corner). Holding just those in flight
   defers the six ranks of the 5-row rows and leaves the 4-row ranks
   ready on the sequential pool (a stall longer than the flight would
   only make a slow rank ready); larger pools mix the paths by timing
   too. Every run is bit-identical to the single grid. *)
let overlapped_mixed_paths_exact () =
  let _, st = stencil_2d9pt_box ~m:14 ~n:18 () in
  let net = delay_net ~slow:(fun bytes -> Float.rem bytes 40.0 = 0.0) 0.05 in
  let single = single_grid st 4 in
  with_wallclock_latency (fun () ->
      List.iter
        (fun workers ->
          let pool = Msc_util.Domain_pool.create workers in
          Fun.protect
            ~finally:(fun () -> Msc_util.Domain_pool.shutdown pool)
            (fun () ->
              List.iter
                (fun depth ->
                  let trace = Msc_trace.create () in
                  let dist =
                    Distributed.create ~config:(cfg ~depth ~pool ()) ~net ~trace
                      ~ranks_shape:[| 3; 3 |] st
                  in
                  Distributed.run dist 4;
                  let label = Printf.sprintf "depth %d, %d workers" depth workers in
                  check_float (label ^ ": bit-identical") 0.0
                    (Grid.max_rel_error ~reference:single (Distributed.gather dist));
                  if workers = 1 then begin
                    let split, exchanges = counter_total trace "dist.overlapped_ranks" in
                    check_bool
                      (Printf.sprintf "%s: %.0f of %d rank exchanges split, some not" label
                         split (9 * exchanges))
                      true
                      (split > 0.0 && split < 9.0 *. float_of_int exchanges)
                  end)
                [ 1; 2 ]))
        [ 1; 2; 3 ])

(* --- Deeper temporal blocks --- *)

(* The traffic one depth-1 exchange posts, compiled here independently of
   the run (width = radius, corners only where a kernel access touches two
   dimensions): one message per link of every rank's halo plan, each the
   newest state's slab toward that neighbour. *)
let depth1_traffic_per_step dist st =
  let decomp = Distributed.decomp dist in
  let mpi = Mpi.create ~nranks:(Distributed.nranks dist) () in
  let faces_only = not (Distributed.needs_corners st) in
  let width = Msc_ir.Stencil.radius st in
  let messages = ref 0 and bytes = ref 0 in
  for rank = 0 to Distributed.nranks dist - 1 do
    let grid = Distributed.rank_state dist ~rank in
    let plan = Halo.plan mpi decomp ~rank ~grid ~width ~faces_only in
    messages := !messages + Array.length (Halo.peers plan);
    List.iter
      (fun dir ->
        if Decomp.neighbor decomp ~rank ~dir <> None then
          bytes := !bytes + (8 * Halo.payload_elems grid ~dir ~width))
      (Decomp.directions ~ndim:(Array.length width) ~faces_only)
  done;
  (!messages, !bytes)

(* Depth 1 over the paper's whole suite: one exchange of the newest state
   per step, one message per neighbour (the count summed from every
   rank's halo links), and the single grid's bits. *)
let depth1_traffic_and_bits_across_suite () =
  List.iter
    (fun (b : Msc_benchsuite.Suite.bench) ->
      let dims =
        Array.make b.Msc_benchsuite.Suite.ndim
          (max 12 (4 * b.Msc_benchsuite.Suite.radius))
      in
      let ranks_shape = Array.make b.Msc_benchsuite.Suite.ndim 2 in
      let st = Msc_benchsuite.Suite.stencil ~dims b in
      let name = b.Msc_benchsuite.Suite.name in
      let dist = Distributed.create ~config:(cfg ~depth:1 ()) ~ranks_shape st in
      let mpi = Distributed.mpi dist in
      let traffic () = (Mpi.messages_sent mpi, Mpi.bytes_sent mpi) in
      let step () =
        let m0, b0 = traffic () in
        Distributed.step dist;
        let m1, b1 = traffic () in
        (m1 - m0, b1 - b0)
      in
      (* Only the newest state goes on the wire: the older states' halos
         are still valid from the previous step's exchange. *)
      let expected = depth1_traffic_per_step dist st in
      List.iter
        (fun i ->
          let messages, bytes = step () in
          check_int (Printf.sprintf "%s: step %d messages == halo links" name i)
            (fst expected) messages;
          check_int (Printf.sprintf "%s: step %d bytes == newest slabs" name i)
            (snd expected) bytes)
        [ 1; 2 ];
      check_float (name ^ ": depth 1 == single grid") 0.0
        (Grid.max_rel_error ~reference:(single_grid st 2) (Distributed.gather dist)))
    Msc_benchsuite.Suite.all

(* Deep blocks: 5 steps at depth 2/4 stop mid-block, so this also pins the
   one-timestep granularity of the protocol (every substep is an exact full
   timestep). *)
let temporal_deep_star_exact () =
  let _, st = stencil_3d7pt ~n:12 () in
  List.iter
    (fun depth ->
      check_float
        (Printf.sprintf "depth %d bit-identical" depth)
        0.0
        (Distributed.validate
           ~config:(cfg ~depth ())
           ~steps:5 ~ranks_shape:[| 2; 2; 2 |] st))
    [ 2; 4 ]

let temporal_deep_box_uneven_exact () =
  let _, st = stencil_2d9pt_box ~m:13 ~n:17 () in
  List.iter
    (fun depth ->
      check_float
        (Printf.sprintf "uneven blocks, depth %d" depth)
        0.0
        (Distributed.validate
           ~config:(cfg ~depth ())
           ~steps:5 ~ranks_shape:[| 3; 2 |] st))
    [ 2; 4 ]

let temporal_periodic_exact () =
  let st = stencil_wave2d ~n:16 () in
  List.iter
    (fun depth ->
      check_float
        (Printf.sprintf "periodic wrap, depth %d" depth)
        0.0
        (Distributed.validate
           ~config:(cfg ~depth ())
           ~steps:5 ~bc:Msc_exec.Bc.Periodic ~ranks_shape:[| 2; 2 |] st))
    [ 2; 4 ]

(* wave2d retains two past states (time_window = 2): the deep exchange must
   ship both in one message per neighbour. *)
let temporal_time_window2_exact () =
  let st = stencil_wave2d ~n:16 () in
  check_float "two retained states, depth 2" 0.0
    (Distributed.validate
       ~config:(cfg ~depth:2 ())
       ~steps:5 ~ranks_shape:[| 2; 2 |] st);
  check_float "two retained states, depth 4" 0.0
    (Distributed.validate
       ~config:(cfg ~depth:4 ())
       ~steps:4 ~ranks_shape:[| 2; 2 |] st)

(* A rank thinner than [depth * radius] cannot host the deep halo: the
   protocol must clamp the depth (here radius 3 over 12x8 split 2x2 ->
   extents 6x4 -> max depth 1) and still be exact. *)
let temporal_thin_rank_clamps () =
  let grid =
    Msc_frontend.Builder.def_tensor_2d ~time_window:2 ~halo:3 "B"
      Msc_ir.Dtype.F64 12 8
  in
  let k = Msc_frontend.Builder.star_kernel ~name:"S" ~radius:3 grid in
  let st = Msc_frontend.Builder.two_step ~name:"thin" k in
  let dist =
    Distributed.create
      ~config:(cfg ~depth:4 ())
      ~ranks_shape:[| 2; 2 |] st
  in
  check_int "depth clamped to thinnest rank" 1 (Distributed.effective_depth dist);
  check_float "clamped depth stays exact" 0.0
    (Distributed.validate
       ~config:(cfg ~depth:4 ())
       ~steps:3 ~ranks_shape:[| 2; 2 |] st)

(* A rank thinner than the exchange width would read past its donor's
   interior (2d9pt_star has radius 2; 16 rows over 16 ranks leaves each
   one row). Both constructors reject it with the same message naming the
   rank, the dimension and the extent, whatever the boundary condition —
   [create] once returned a 0.16 relative error under Dirichlet. *)
let distributed_thin_rank_rejected () =
  let st =
    Msc_benchsuite.Suite.stencil ~dims:[| 16; 16 |]
      (Msc_benchsuite.Suite.find "2d9pt_star")
  in
  let config = cfg ~backend:Msc_exec.Backend.Interp () in
  let ranks_shape = [| 16; 1 |] in
  let rejection f =
    match f () with exception Invalid_argument msg -> msg | _ -> "accepted"
  in
  List.iter
    (fun (bname, bc) ->
      let msg =
        rejection (fun () -> ignore (Distributed.create ~config ~bc ~ranks_shape st))
      in
      check_string (bname ^ ": stencil rejected")
        "Distributed: rank 0 extent 1 < exchange width 2 in dimension 0 \
         (coarsen the decomposition)"
        msg;
      check_string (bname ^ ": graph rejected alike") msg
        (rejection (fun () ->
             ignore
               (Distributed.create_graph ~config ~bc ~ranks_shape
                  (Msc_graph.Graph.single st)))))
    [ ("dirichlet", Msc_exec.Bc.Dirichlet 0.0); ("periodic", Msc_exec.Bc.Periodic) ]

let temporal_effective_depth_reported () =
  let _, st = stencil_3d7pt ~n:12 () in
  let dist =
    Distributed.create
      ~config:(cfg ~depth:4 ())
      ~ranks_shape:[| 2; 2; 2 |] st
  in
  check_int "requested depth fits" 4 (Distributed.effective_depth dist);
  let over = Distributed.create ~ranks_shape:[| 2; 2; 2 |] st in
  check_int "default depth 1" 1 (Distributed.effective_depth over)

let temporal_pool_parallel_exact () =
  pool_parallel_exact [ 2 ]

(* One deep exchange per block: a 2x2 grid of ranks, 3 neighbours each
   (corners included), depth 2 -> 12 messages for two steps where depth 1
   posts 24. *)
let temporal_message_savings () =
  let _, st = stencil_2d9pt_box ~m:12 ~n:12 () in
  let run depth steps =
    let dist = Distributed.create ~config:(cfg ~depth ()) ~ranks_shape:[| 2; 2 |] st in
    let before = Mpi.messages_sent (Distributed.mpi dist) in
    Distributed.run dist steps;
    Mpi.messages_sent (Distributed.mpi dist) - before
  in
  check_int "one deep exchange per block" 12 (run 2 2);
  check_int "depth 1 exchanges every step" 24 (run 1 2)

let temporal_invalid_args () =
  let _, st = stencil_2d9pt_box () in
  check_string "depth 0 rejected, naming the depth"
    "Distributed: temporal block depth 0 must be >= 1"
    (try
       ignore (Distributed.create ~config:(cfg ~depth:0 ()) ~ranks_shape:[| 2; 2 |] st);
       "accepted"
     with Invalid_argument msg -> msg);
  check_bool "Reflect at depth > 1 rejected" true
    (try
       ignore
         (Distributed.create
            ~config:(cfg ~depth:2 ())
            ~bc:Msc_exec.Bc.Reflect ~ranks_shape:[| 2; 2 |] st);
       false
     with Invalid_argument _ -> true)

(* Property: random rank grids and depths agree bit-exactly with the single
   grid (Dirichlet) — the identity the deep-halo protocol must keep at
   every depth. *)
let temporal_property =
  qc ~count:10 "temporal == single for random rank shapes and depths"
    QCheck.(triple (int_range 1 3) (int_range 1 3) (int_range 1 4))
    (fun (px, py, depth) ->
      let _, st = stencil_2d9pt_box ~m:12 ~n:12 () in
      Distributed.validate
        ~config:(cfg ~depth ())
        ~steps:3 ~ranks_shape:[| px; py |] st
      = 0.0)

(* --- Netmodel & Scaling --- *)

let netmodel_monotone_in_bytes () =
  let n = Netmodel.sunway_taihulight in
  let t1 = Netmodel.exchange_time n ~nranks:64 ~messages_per_rank:4 ~bytes_per_message:1e3 in
  let t2 = Netmodel.exchange_time n ~nranks:64 ~messages_per_rank:4 ~bytes_per_message:1e6 in
  check_bool "more bytes slower" true (t2 > t1)

let netmodel_master_bottleneck () =
  let n = Netmodel.shared_memory in
  let async = Netmodel.exchange_time n ~nranks:28 ~messages_per_rank:4 ~bytes_per_message:1e5 in
  let master =
    Netmodel.master_coordinated_time n ~nranks:28 ~messages_per_rank:4 ~bytes_per_message:1e5
  in
  check_bool "master much slower" true (master > 10.0 *. async)

let netmodel_tianhe_small_message_congestion () =
  let n = Netmodel.tianhe3_prototype in
  let small = Netmodel.exchange_time n ~nranks:256 ~messages_per_rank:4 ~bytes_per_message:20e3 in
  let small_few = Netmodel.exchange_time n ~nranks:32 ~messages_per_rank:4 ~bytes_per_message:20e3 in
  check_bool "congestion grows with ranks" true (small > 2.0 *. small_few)

let scaling_weak_near_ideal () =
  let make_stencil dims = Msc_benchsuite.Suite.stencil ~dims (Msc_benchsuite.Suite.find "3d7pt_star") in
  let configs =
    List.map
      (fun (c : Msc_benchsuite.Settings.scaling_config) ->
        (c.Msc_benchsuite.Settings.sunway_mpi_grid, c.Msc_benchsuite.Settings.weak_sub_grid))
      (List.filter
         (fun (c : Msc_benchsuite.Settings.scaling_config) ->
           c.Msc_benchsuite.Settings.dim = 3)
         Msc_benchsuite.Settings.table7)
  in
  let points = Scaling.run ~platform:Scaling.Sunway ~make_stencil ~configs in
  List.iter
    (fun (p : Scaling.point) ->
      check_bool "weak >= 95% ideal" true (p.Scaling.gflops >= 0.95 *. p.Scaling.ideal_gflops))
    points;
  check_bool "8x speedup" true (Scaling.speedup_vs_first points > 7.0)

let scaling_tianhe_2d_strong_droops () =
  let make_stencil dims = Msc_benchsuite.Suite.stencil ~dims (Msc_benchsuite.Suite.find "2d9pt_star") in
  let configs =
    List.map
      (fun (c : Msc_benchsuite.Settings.scaling_config) ->
        (c.Msc_benchsuite.Settings.tianhe3_mpi_grid, c.Msc_benchsuite.Settings.strong_sub_grid))
      (List.filter
         (fun (c : Msc_benchsuite.Settings.scaling_config) ->
           c.Msc_benchsuite.Settings.dim = 2)
         Msc_benchsuite.Settings.table7)
  in
  let points = Scaling.run ~platform:Scaling.Tianhe3 ~make_stencil ~configs in
  let last = List.nth points (List.length points - 1) in
  check_bool "visible droop at max scale" true
    (last.Scaling.gflops < 0.9 *. last.Scaling.ideal_gflops)

let scaling_temporal_comm_amortised () =
  (* On a latency-dominated configuration (small faces), the deep exchange's
     alpha amortisation must win; the bandwidth term alone cannot grow the
     per-step cost above the depth-1 baseline by construction. *)
  let t1 =
    Scaling.comm_time Scaling.Tianhe3 ~ranks:256 ~sub_grid:[| 64; 64 |]
      ~radius:[| 1; 1 |] ~elem:8 ~faces_only:true
  in
  let t4 =
    Scaling.comm_time ~depth:4 Scaling.Tianhe3 ~ranks:256 ~sub_grid:[| 64; 64 |]
      ~radius:[| 1; 1 |] ~elem:8 ~faces_only:true
  in
  check_bool "deep blocks amortise the alpha cost" true (t4 < t1);
  check_bool "depth validated" true
    (try
       ignore
         (Scaling.comm_time ~depth:0 Scaling.Tianhe3 ~ranks:4
            ~sub_grid:[| 8; 8 |] ~radius:[| 1; 1 |] ~elem:8 ~faces_only:true);
       false
     with Invalid_argument _ -> true)

let scaling_temporal_compute_factor () =
  let f1 =
    Scaling.temporal_compute_factor ~sub_grid:[| 32; 32 |] ~radius:[| 1; 1 |]
      ~depth:1
  in
  check_float "depth 1 is free" 1.0 f1;
  let f2 =
    Scaling.temporal_compute_factor ~sub_grid:[| 32; 32 |] ~radius:[| 1; 1 |]
      ~depth:2
  in
  let f4 =
    Scaling.temporal_compute_factor ~sub_grid:[| 32; 32 |] ~radius:[| 1; 1 |]
      ~depth:4
  in
  check_bool "ghost inflation grows with depth" true (1.0 < f2 && f2 < f4);
  (* Depth 2 over 32x32 r=1: substep 0 sweeps 34^2, substep 1 sweeps 32^2. *)
  check_float "closed form" ((34.0 ** 2.0 +. 32.0 ** 2.0) /. 2048.0) f2

let scaling_cores_accounting () =
  let make_stencil dims = Msc_benchsuite.Suite.stencil ~dims (Msc_benchsuite.Suite.find "3d7pt_star") in
  let points =
    Scaling.run ~platform:Scaling.Sunway ~make_stencil
      ~configs:[ ([| 8; 4; 4 |], [| 128; 128; 128 |]) ]
  in
  match points with
  | [ p ] -> check_int "65 cores per CG" (128 * 65) p.Scaling.cores
  | _ -> Alcotest.fail "one point expected"

let decomp_core_shape_tiles () =
  let core = Decomp.core_shape ~ranks_shape:[| 64; 64 |] ~ranks_per_node:8 in
  check_int "core holds the node" 8 (Array.fold_left ( * ) 1 core);
  Array.iteri
    (fun d c -> check_int "core tiles the grid" 0 (64 mod c) |> fun () -> ignore d)
    core;
  (* A prime node size that divides no extent is dropped, not forced. *)
  let degenerate = Decomp.core_shape ~ranks_shape:[| 64; 64 |] ~ranks_per_node:7 in
  Alcotest.(check (array int)) "undividable factors dropped" [| 1; 1 |] degenerate;
  let d = Decomp.create ~global:[| 256; 256 |] ~ranks_shape:[| 64; 64 |] in
  let core = Decomp.core_shape ~ranks_shape:[| 64; 64 |] ~ranks_per_node:8 in
  (* Node ids partition the ranks into equal blocks of the core size. *)
  let counts = Hashtbl.create 64 in
  for r = 0 to d.Decomp.nranks - 1 do
    let n = Decomp.node_of_rank d ~core r in
    Hashtbl.replace counts n (1 + Option.value ~default:0 (Hashtbl.find_opt counts n))
  done;
  check_int "node count" (4096 / 8) (Hashtbl.length counts);
  Hashtbl.iter (fun _ c -> check_int "ranks per node" 8 c) counts;
  check_bool "row neighbours share a node" true (Decomp.same_node d ~core 0 1);
  check_bool "blocks end" false (Decomp.same_node d ~core 1 2)

let scaling_hier_cheaper_at_scale () =
  let flat =
    Scaling.comm_time Scaling.Tianhe3 ~ranks:1024 ~sub_grid:[| 128; 128 |]
      ~radius:[| 1; 1 |] ~elem:8 ~faces_only:false
  in
  let one =
    Scaling.comm_time ~ranks_per_node:1 Scaling.Tianhe3 ~ranks:1024
      ~sub_grid:[| 128; 128 |] ~radius:[| 1; 1 |] ~elem:8 ~faces_only:false
  in
  check_float "rpn 1 is the flat model" flat one;
  let hier =
    Scaling.comm_time
      ~ranks_per_node:(Scaling.ranks_per_node Scaling.Tianhe3)
      Scaling.Tianhe3 ~ranks:1024 ~sub_grid:[| 128; 128 |] ~radius:[| 1; 1 |]
      ~elem:8 ~faces_only:false
  in
  (* Aggregation trades 1024 congested endpoints exchanging 8-byte corners
     for 128 nodes exchanging a few large slabs: the alpha bill collapses. *)
  check_bool "hierarchical wins at scale" true (hier *. 2.0 < flat);
  check_bool "rpn validated" true
    (try
       ignore
         (Scaling.comm_time ~ranks_per_node:0 Scaling.Tianhe3 ~ranks:4
            ~sub_grid:[| 8; 8 |] ~radius:[| 1; 1 |] ~elem:8 ~faces_only:true);
       false
     with Invalid_argument _ -> true)

let scaling_efficiency_curve_weak () =
  let make_stencil dims =
    Msc_benchsuite.Suite.stencil ~dims (Msc_benchsuite.Suite.find "2d9pt_star")
  in
  let pts =
    Scaling.efficiency_curve Scaling.Sunway ~make_stencil ~mode:`Weak
      ~base:[| 64; 64 |] ~ladder:[ 16; 64; 256 ]
  in
  check_int "one point per rung" 3 (List.length pts);
  let first = List.hd pts in
  check_float "baseline efficiency" 1.0 first.Scaling.e_efficiency;
  List.iter
    (fun (p : Scaling.eff_point) ->
      check_int "grid covers the ranks" p.Scaling.e_ranks
        (Array.fold_left ( * ) 1 p.Scaling.e_grid);
      Alcotest.(check (array int)) "weak sub-grid constant" [| 64; 64 |] p.Scaling.e_sub;
      check_bool "efficiency sane" true
        (p.Scaling.e_efficiency > 0.5 && p.Scaling.e_efficiency <= 1.0 +. 1e-9))
    pts

let scaling_efficiency_curve_strong_depth () =
  let make_stencil dims =
    Msc_benchsuite.Suite.stencil ~dims (Msc_benchsuite.Suite.find "2d9pt_star")
  in
  let pts =
    Scaling.efficiency_curve ~depth:16 Scaling.Tianhe3 ~make_stencil
      ~mode:`Strong ~base:[| 512; 512 |] ~ladder:[ 16; 256 ]
  in
  (match pts with
  | [ p16; p256 ] ->
      Alcotest.(check (array int)) "strong sub shrinks" [| 128; 128 |] p16.Scaling.e_sub;
      Alcotest.(check (array int)) "strong sub shrinks more" [| 32; 32 |]
        p256.Scaling.e_sub;
      (* radius 1, thinnest extent 128 / 32: the requested depth fits. *)
      check_int "depth honoured" 16 p16.Scaling.e_depth;
      check_int "depth honoured at scale" 16 p256.Scaling.e_depth;
      check_bool "strong efficiency positive" true (p256.Scaling.e_efficiency > 0.0)
  | _ -> Alcotest.fail "two points expected");
  (* Geometry caps the depth: an 8-wide sub-grid over the star's radius-2
     reach cannot host more than a 4-deep block. *)
  let capped =
    Scaling.efficiency_curve ~depth:16 Scaling.Tianhe3 ~make_stencil ~mode:`Weak
      ~base:[| 8; 8 |] ~ladder:[ 16 ]
  in
  check_int "depth capped by geometry" 4 (List.hd capped).Scaling.e_depth

let suites =
  [
    ( "comm.mpi",
      [
        tc "send/recv" mpi_send_recv;
        tc "fifo" mpi_fifo_order;
        tc "tag matching" mpi_tag_matching;
        tc "payload copied" mpi_payload_isolated;
        tc "deadlock detected" mpi_deadlock_detected;
        tc "deadlock report" mpi_deadlock_report_printable;
        tc "counters" mpi_counters;
        tc "test probe" mpi_test_probe;
        tc "simulated latency" mpi_simulated_latency;
        tc "harness sleep-free" mpi_harness_sleep_free;
        tc "wait delay policy" mpi_wait_delay_policy;
        tc "in-flight wait is prompt" mpi_wait_in_flight_promptly;
        tc "rank bounds" mpi_rank_bounds;
        mpi_parity_with_reference_property;
      ] );
    ( "comm.decomp",
      [
        tc "coords roundtrip" decomp_coords_roundtrip;
        tc "even split" decomp_even_split;
        tc "uneven split" decomp_uneven_split;
        tc "covers globally" decomp_covers;
        tc "neighbors" decomp_neighbors;
        tc "directions" decomp_directions;
        tc "dir tags unique" decomp_dir_index_unique;
        tc "auto shape" decomp_auto_shape;
        tc "validation" decomp_validation;
        tc "degenerate and large shapes" decomp_degenerate_and_large_shapes;
        decomp_periodic_inverse_property;
        decomp_shape_partition_property;
      ] );
    ( "comm.halo",
      [
        tc "pack/unpack roundtrip" halo_pack_unpack_roundtrip;
        tc "corner roundtrip" halo_corner_roundtrip;
        tc "payload sizes" halo_payload_sizes;
        tc "unpack size mismatch" halo_unpack_size_mismatch;
        tc "plan geometry guard" halo_plan_geometry_guard;
        tc "exchange fills outer" halo_exchange_fills_outer;
        halo_blit_matches_naive_property;
        halo_copy_stub_roundtrip_property;
      ] );
    ( "comm.distributed",
      [
        tc "star exact" distributed_star_exact;
        tc "box corners exact" distributed_box_corners_exact;
        tc "uneven exact" distributed_uneven_exact;
        tc "wave exact" distributed_wave_exact;
        tc "single rank" distributed_single_rank_degenerate;
        tc "wide halo" distributed_wide_halo_exact;
        tc "message accounting" distributed_message_accounting;
        tc "gather shape" distributed_gather_shape;
        tc "differential matrix" distributed_differential_matrix;
        tc "thin rank rejected" distributed_thin_rank_rejected;
        tc "steady-state step allocation" distributed_step_allocation_pinned;
      ] );
    ( "comm.overlapped",
      [
        tc "suite bit-identical across engines" depths_bit_identical_across_suite;
        tc "tri-engine bit-identical at 4x4" depths_bit_identical_4x4;
        tc "both engines match single grid" depths_match_single_grid;
        tc "periodic exact" overlapped_periodic_exact;
        tc "pool-parallel exact" overlapped_pool_parallel_exact;
        tc "cross-worker messages traced" overlapped_cross_worker_messages_traced;
        tc "thin ranks all shell" overlapped_thin_rank_exact;
        tc "overlap window traced" overlapped_traces_overlap_window;
        tc "ready ranks sweep whole" overlapped_ready_ranks_sweep_whole;
        tc "ready and deferred ranks mixed" overlapped_mixed_paths_exact;
      ] );
    ( "comm.temporal",
      [
        tc "depth-1 tri-engine bit identity" depth1_traffic_and_bits_across_suite;
        tc "deep star exact" temporal_deep_star_exact;
        tc "deep box uneven exact" temporal_deep_box_uneven_exact;
        tc "periodic exact" temporal_periodic_exact;
        tc "time window 2 exact" temporal_time_window2_exact;
        tc "thin rank clamps" temporal_thin_rank_clamps;
        tc "effective depth reported" temporal_effective_depth_reported;
        tc "pool-parallel exact" temporal_pool_parallel_exact;
        tc "message savings" temporal_message_savings;
        tc "invalid args" temporal_invalid_args;
      ] );
    ("comm.properties", [ distributed_property; temporal_property ]);
    ( "comm.netmodel_scaling",
      [
        tc "monotone in bytes" netmodel_monotone_in_bytes;
        tc "master bottleneck" netmodel_master_bottleneck;
        tc "tianhe congestion" netmodel_tianhe_small_message_congestion;
        tc "weak near ideal" scaling_weak_near_ideal;
        tc "tianhe 2d strong droops" scaling_tianhe_2d_strong_droops;
        tc "temporal comm amortised" scaling_temporal_comm_amortised;
        tc "temporal compute factor" scaling_temporal_compute_factor;
        tc "cores accounting" scaling_cores_accounting;
        tc "core shape tiles" decomp_core_shape_tiles;
        tc "hier comm cheaper" scaling_hier_cheaper_at_scale;
        tc "efficiency curve weak" scaling_efficiency_curve_weak;
        tc "efficiency curve strong+depth" scaling_efficiency_curve_strong_depth;
      ] );
  ]
