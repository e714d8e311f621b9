open Msc_ir
module Schedule = Msc_schedule.Schedule

type platform = Sunway | Tianhe3

type point = {
  ranks : int;
  cores : int;
  mpi_grid : int array;
  sub_grid : int array;
  compute_s : float;
  comm_s : float;
  time_per_step_s : float;
  gflops : float;
  ideal_gflops : float;
}

let cores_per_rank = function Sunway -> 65 | Tianhe3 -> 32

(* One MPI rank per core group / cluster: a TaihuLight node carries 4 CGs,
   a Tianhe-3 prototype blade 8 MT-3000 clusters. Faces between ranks of
   the same node never touch the interconnect. *)
let ranks_per_node = function Sunway -> 4 | Tianhe3 -> 8

let network = function
  | Sunway -> Netmodel.sunway_taihulight
  | Tianhe3 -> Netmodel.tianhe3_prototype

let clamp_tile tile dims = Array.mapi (fun d t -> min t dims.(d)) tile

(* Shrink the tile until the time-window read buffers plus the write buffer
   fit the 64 KB scratchpad (the compiler would reject the schedule
   otherwise). Halves the widest non-contiguous dimension first. *)
let sunway_fit_tile (st : Stencil.t) tile =
  let nd = Array.length tile in
  let radius = Stencil.radius st in
  let elem = Dtype.size_bytes st.Stencil.grid.Tensor.dtype in
  let nstates = Stencil.time_window st in
  let fits tile =
    let padded = ref 1 and interior = ref 1 in
    Array.iteri
      (fun d t ->
        padded := !padded * (t + (2 * radius.(d)));
        interior := !interior * t)
      tile;
    ((nstates * !padded) + !interior) * elem <= 64 * 1024
  in
  let tile = Array.copy tile in
  let rec shrink () =
    if fits tile then tile
    else begin
      let widest = ref (-1) in
      for d = 0 to nd - 2 do
        if tile.(d) > 1 && (!widest < 0 || tile.(d) > tile.(!widest)) then widest := d
      done;
      let d = if !widest >= 0 then !widest else nd - 1 in
      if tile.(d) = 1 then tile
      else begin
        tile.(d) <- max 1 (tile.(d) / 2);
        shrink ()
      end
    end
  in
  shrink ()

let node_compute_time platform (st : Stencil.t) =
  let kernels = Stencil.kernels st in
  let kernel = List.hd kernels in
  let dims = st.Stencil.grid.Tensor.shape in
  match platform with
  | Sunway ->
      let tile = sunway_fit_tile st (clamp_tile (Schedule.default_tile kernel) dims) in
      let sched = Schedule.sunway_canonical ~tile kernel in
      (match Msc_sunway.Sim.simulate ~steps:1 st sched with
      | Ok r -> r.Msc_sunway.Sim.time_per_step_s
      | Error msg -> invalid_arg ("Scaling: " ^ msg))
  | Tianhe3 ->
      let tile = clamp_tile (Schedule.default_tile kernel) dims in
      let sched = Schedule.matrix_canonical ~tile kernel in
      (match Msc_matrix.Sim.simulate ~steps:1 st sched with
      | Ok r -> r.Msc_matrix.Sim.time_per_step_s
      | Error msg -> invalid_arg ("Scaling: " ^ msg))

let allreduce_time ?(bytes = 8) platform ~ranks =
  Netmodel.allreduce_time (network platform) ~nranks:ranks ~bytes

let comm_time ?(depth = 1) ?(time_window = 1) ?(allreduces_per_step = 0)
    ?ranks_per_node:(rpn = 1) platform ~ranks ~sub_grid ~radius ~elem
    ~faces_only =
  if depth < 1 then invalid_arg "Scaling.comm_time: depth must be >= 1";
  if allreduces_per_step < 0 then
    invalid_arg "Scaling.comm_time: allreduces_per_step must be >= 0";
  if rpn < 1 then invalid_arg "Scaling.comm_time: ranks_per_node must be >= 1";
  let nd = Array.length sub_grid in
  (* The directions the engine actually exchanges: faces for star stencils,
     all 3^nd - 1 offsets (edges and corners included) for box stencils —
     the same enumeration {!Halo} drives, so message counts match the
     functional runtime instead of hardcoding [2 * nd]. A temporal block of
     depth > 1 always exchanges corners (extension reads bleed
     diagonally). *)
  let faces_only = faces_only && depth = 1 in
  let dirs = Decomp.directions ~ndim:nd ~faces_only in
  let messages_per_rank = List.length dirs in
  (* A direction's payload is the slab that is [depth * radius]-deep along
     every non-zero axis and sub-grid-wide along the rest, carrying every
     retained state ([time_window] slabs per message). *)
  let slab_bytes dir =
    let elems = ref 1 in
    Array.iteri
      (fun d o ->
        elems := !elems * if o = 0 then sub_grid.(d) else depth * radius.(d))
      dir;
    !elems * elem * time_window
  in
  let net = network platform in
  (* Every message pays the contended setup cost at its own true size —
     a box stencil's 8-byte corners congest the small-message-hostile
     Tianhe-3 interconnect hardest, exactly the regime the mean-face
     approximation used to smooth away — and the payload streams at link
     bandwidth. *)
  let price (m : Netmodel.t) ~nranks bytes =
    (m.Netmodel.alpha_s
    *. m.Netmodel.congestion_at ~nranks ~messages_per_rank
         ~bytes_per_message:(float_of_int bytes))
    +. (float_of_int bytes /. (m.Netmodel.beta_gbs *. 1e9))
  in
  let exchange =
    if rpn <= 1 then
      List.fold_left (fun acc dir -> acc +. price net ~nranks:ranks (slab_bytes dir)) 0.0 dirs
    else if ranks <= rpn then
      (* The whole job fits one node: every face is a shared-memory copy,
         the interconnect is never touched. *)
      List.fold_left
        (fun acc dir ->
          acc +. price Netmodel.shared_memory ~nranks:ranks (slab_bytes dir))
        0.0 dirs
    else begin
      (* Hierarchical two-level pricing. The rank grid splits into node
         blocks of [core] ranks ({!Decomp.core_shape} of the balanced
         rank-grid shape); a direction leaves the node only when the step
         crosses a core-block boundary along every non-zero axis with
         probability 1/core.(d), so
           P(off-node) = 1 - prod_{d : dir_d <> 0} (1 - 1/core.(d)).
         On-node faces are shared-memory copies. Off-node traffic is
         aggregated per node and direction — the runtime packs every
         crossing rank's slab into one message per neighbouring node, the
         paper's corner/edge aggregation — so the interconnect sees
         [nnodes] endpoints exchanging few large messages, and every rank
         of the node waits out its node's aggregate exchange. *)
      let core =
        Decomp.core_shape ~ranks_shape:(Decomp.auto_shape ~nranks:ranks ~ndim:nd)
          ~ranks_per_node:rpn
      in
      let in_node = Array.fold_left ( * ) 1 core in
      let nnodes = max 1 (ranks / in_node) in
      let shm = Netmodel.shared_memory in
      List.fold_left
        (fun acc dir ->
          let bytes = slab_bytes dir in
          let p_off = ref 1.0 in
          Array.iteri
            (fun d o ->
              if o <> 0 then
                p_off := !p_off *. (1.0 -. (1.0 /. float_of_int core.(d))))
            dir;
          let p_off = 1.0 -. !p_off in
          let intra = (1.0 -. p_off) *. price shm ~nranks:in_node bytes in
          let agg_bytes =
            int_of_float (ceil (p_off *. float_of_int (in_node * bytes)))
          in
          let inter =
            if agg_bytes = 0 then 0.0 else price net ~nranks:nnodes agg_bytes
          in
          acc +. intra +. inter)
        0.0 dirs
    end
  in
  (* One deep exchange feeds [depth] timesteps, so the per-step cost is the
     block's exchange amortised over the block. Solver-style allreduces are
     per true timestep — convergence tests cannot be amortised away by
     temporal blocking — so they add on top, outside the [depth] divide. *)
  (exchange /. float_of_int depth)
  +. (float_of_int allreduces_per_step
     *. Netmodel.allreduce_time net ~nranks:ranks ~bytes:8)

(* Redundant-ghost inflation of a depth-k temporal block: substep s sweeps
   the interior grown by (k-1-s) * radius per side, so the block computes
   sum_s prod_d (n_d + 2*(k-1-s)*r_d) points for k true timesteps. *)
let temporal_compute_factor ~sub_grid ~radius ~depth =
  if depth < 1 then
    invalid_arg "Scaling.temporal_compute_factor: depth must be >= 1";
  let interior =
    float_of_int (Array.fold_left ( * ) 1 sub_grid)
  in
  let total = ref 0.0 in
  for s = 0 to depth - 1 do
    let e = depth - 1 - s in
    let v = ref 1.0 in
    Array.iteri
      (fun d n -> v := !v *. float_of_int (n + (2 * e * radius.(d))))
      sub_grid;
    total := !total +. !v
  done;
  !total /. (float_of_int depth *. interior)

let run ~platform ~make_stencil ~configs =
  let points =
    List.map
      (fun (mpi_grid, sub_grid) ->
        let ranks = Array.fold_left ( * ) 1 mpi_grid in
        let st = make_stencil sub_grid in
        let compute_s = node_compute_time platform st in
        let radius = Stencil.radius st in
        let elem = Dtype.size_bytes st.Stencil.grid.Tensor.dtype in
        let comm_s =
          comm_time platform ~ranks ~sub_grid ~radius ~elem
            ~faces_only:(not (Distributed.needs_corners st))
        in
        (* The overlapped protocol hides the transfer behind the interior
           sub-sweep ({!Distributed.step}); the packing/unpacking half of
           the exchange still cannot hide. *)
        let overlap_residual = 0.5 in
        let time_per_step_s =
          Float.max compute_s comm_s
          +. (overlap_residual *. Float.min compute_s comm_s)
        in
        let flops =
          float_of_int (Stencil.flops_per_point st)
          *. float_of_int (Array.fold_left ( * ) 1 sub_grid)
          *. float_of_int ranks
        in
        {
          ranks;
          cores = ranks * cores_per_rank platform;
          mpi_grid;
          sub_grid;
          compute_s;
          comm_s;
          time_per_step_s;
          gflops = flops /. time_per_step_s /. 1e9;
          ideal_gflops = 0.0;
        })
      configs
  in
  match points with
  | [] -> []
  | first :: _ ->
      List.map
        (fun p ->
          {
            p with
            ideal_gflops =
              first.gflops *. (float_of_int p.ranks /. float_of_int first.ranks);
          })
        points

let speedup_vs_first = function
  | [] -> 1.0
  | first :: _ as points ->
      let last = List.nth points (List.length points - 1) in
      last.gflops /. first.gflops

type eff_point = {
  e_ranks : int;
  e_grid : int array;
  e_sub : int array;
  e_depth : int;
  e_compute_s : float;
  e_comm_s : float;
  e_time_s : float;
  e_efficiency : float;
}

let efficiency_curve ?(depth = 1) ?ranks_per_node:rpn platform ~make_stencil
    ~mode ~base ~ladder =
  if depth < 1 then
    invalid_arg "Scaling.efficiency_curve: depth must be >= 1";
  let rpn = match rpn with Some n -> n | None -> ranks_per_node platform in
  let nd = Array.length base in
  (* The node simulators dominate the curve's cost; a weak-scaling ladder
     reuses one sub-grid for every point, so memoise per sub-grid. *)
  let memo = Hashtbl.create 8 in
  let compute_of sub =
    let key = Array.to_list sub in
    match Hashtbl.find_opt memo key with
    | Some t -> t
    | None ->
        let t = node_compute_time platform (make_stencil sub) in
        Hashtbl.add memo key t;
        t
  in
  let points =
    List.map
      (fun n ->
        let grid = Decomp.auto_shape ~nranks:n ~ndim:nd in
        let sub =
          match mode with
          | `Strong -> Array.map2 (fun g p -> max 1 (g / p)) base grid
          | `Weak -> Array.copy base
        in
        let st = make_stencil sub in
        let radius = Stencil.radius st in
        let elem = Dtype.size_bytes st.Stencil.grid.Tensor.dtype in
        (* Geometry caps the temporal depth: a block deeper than the
           sub-grid's thinnest extent over its radius would read past the
           neighbour's neighbour. *)
        let d_eff =
          let cap = ref depth in
          Array.iteri
            (fun d r -> if r > 0 then cap := min !cap (sub.(d) / r))
            radius;
          max 1 !cap
        in
        let compute_s =
          compute_of sub
          *. temporal_compute_factor ~sub_grid:sub ~radius ~depth:d_eff
        in
        let comm_s =
          comm_time ~depth:d_eff ~ranks_per_node:rpn platform ~ranks:n
            ~sub_grid:sub ~radius ~elem
            ~faces_only:(not (Distributed.needs_corners st))
        in
        let overlap_residual = 0.5 in
        let time_s =
          Float.max compute_s comm_s
          +. (overlap_residual *. Float.min compute_s comm_s)
        in
        {
          e_ranks = n;
          e_grid = grid;
          e_sub = sub;
          e_depth = d_eff;
          e_compute_s = compute_s;
          e_comm_s = comm_s;
          e_time_s = time_s;
          e_efficiency = 1.0;
        })
      ladder
  in
  match points with
  | [] -> []
  | first :: _ ->
      (* Parallel efficiency against the ladder's first point, normalised
         by the work actually swept: per-core throughput relative to the
         baseline's. Exact strong scaling gives 1.0 down the column even
         when the sub-grid division rounds; weak scaling reduces to
         t_first / t_n. *)
      let work p =
        float_of_int p.e_ranks
        *. float_of_int (Array.fold_left ( * ) 1 p.e_sub)
      in
      let base_thr = work first /. first.e_time_s /. float_of_int first.e_ranks in
      List.map
        (fun p ->
          {
            p with
            e_efficiency =
              work p /. p.e_time_s /. float_of_int p.e_ranks /. base_thr;
          })
        points
