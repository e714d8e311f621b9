open Msc_ir
module Machine = Msc_machine.Machine

type parallel = Seq | Block of int | Round_robin of int

type t = {
  stencil : Stencil.t;
  schedule : Schedule.t;
  digest : string;
  machine : Machine.t option;
  nests : Loopnest.t list;
  loops : Loopnest.loop list;
  tile : int array;
  padded_tile : int array;
  tasks : (int array * int array) array;
  parallel : parallel;
  dma : Loopnest.dma_plan option;
  n_state_streams : int;
  n_aux_streams : int;
  tiles_count : int;
  tile_elems : int;
  padded_elems : int;
  working_set_bytes : int;
  reuse_factor : float;
  spm_capacity_bytes : int option;
}

let ceil_div a b = (a + b - 1) / b

let distinct_dts (st : Stencil.t) =
  List.sort_uniq compare (List.map (fun t -> t.Stencil.dt) (Stencil.terms st))

let distinct_aux_names (st : Stencil.t) =
  List.sort_uniq compare
    (List.concat_map
       (fun k -> List.map (fun (a : Tensor.t) -> a.Tensor.name) k.Kernel.aux)
       (Stencil.kernels st))

(* Enumerate the tile tasks in the traversal order the outer loops dictate:
   the outermost tile-index loop varies slowest, the innermost fastest. A
   schedule that reorders the outer axes therefore reorders the sweep — the
   native runtime inherits the locality effect the [reorder] primitive is
   meant to establish. *)
let tasks_of ~shape ~tile loops =
  let nd = Array.length shape in
  let outer =
    List.filter_map
      (fun (l : Loopnest.loop) ->
        match l.Loopnest.role with
        | Loopnest.Outer d -> Some d
        | Loopnest.Inner _ | Loopnest.Full _ -> None)
      loops
  in
  match outer with
  | [] -> [| (Array.make nd 0, Array.copy shape) |]
  | dims ->
      let dims = Array.of_list dims in
      let counts = Array.map (fun d -> ceil_div shape.(d) tile.(d)) dims in
      let total = Array.fold_left ( * ) 1 counts in
      Array.init total (fun id ->
          let lo = Array.make nd 0 and hi = Array.copy shape in
          let rest = ref id in
          for i = Array.length dims - 1 downto 0 do
            let d = dims.(i) in
            let td = !rest mod counts.(i) in
            rest := !rest / counts.(i);
            lo.(d) <- td * tile.(d);
            hi.(d) <- min shape.(d) (lo.(d) + tile.(d))
          done;
          (lo, hi))

(* A plan is a pure function of (stencil, schedule): digest both the
   printed forms (stable across processes) and the Marshal bytes (collision
   resistance beyond what the printers expose). A spurious mismatch only
   costs a kernel-cache miss; a spurious match is what the Marshal half
   rules out. *)
let digest_of (st : Stencil.t) schedule =
  Digest.to_hex
    (Digest.string
       (Format.asprintf "%a\x00%a" Stencil.pp st Schedule.pp schedule
       ^ Marshal.to_string (st, schedule) []))

let compile ?machine (st : Stencil.t) schedule =
  let kernels = Stencil.kernels st in
  let validation =
    List.fold_left
      (fun acc k ->
        match acc with
        | Error _ -> acc
        | Ok () -> Schedule.validate schedule ~kernel:k)
      (Ok ()) kernels
  in
  match validation with
  | Error _ as e -> e
  | Ok () ->
      let grid = st.Stencil.grid in
      let shape = grid.Tensor.shape in
      let nd = Array.length shape in
      let elem = Dtype.size_bytes grid.Tensor.dtype in
      let tile =
        match Schedule.tile_sizes schedule ~ndim:nd with
        | Some sizes -> sizes
        | None -> Array.copy shape
      in
      let radius = Stencil.radius st in
      let padded_tile = Array.mapi (fun d t -> t + (2 * radius.(d))) tile in
      let loops = Loopnest.loops_for ~shape schedule in
      (* Validation passed for every kernel, so per-kernel lowering cannot
         fail. *)
      let nests = List.map (fun k -> Loopnest.lower_exn k schedule) kernels in
      let tasks = tasks_of ~shape ~tile loops in
      let parallel =
        match Schedule.parallel_spec schedule with
        | None -> Seq
        | Some (_, units, Schedule.Omp_threads) -> Block units
        | Some (_, units, Schedule.Athread_cpes) -> Round_robin units
      in
      let tile_elems = Array.fold_left ( * ) 1 tile in
      let padded_elems = Array.fold_left ( * ) 1 padded_tile in
      let n_state_streams = List.length (distinct_dts st) in
      let n_aux_streams = List.length (distinct_aux_names st) in
      let nstreams = n_state_streams + n_aux_streams in
      let reuse_factor =
        match kernels with
        | [] -> 0.0
        | k :: _ ->
            float_of_int (Kernel.points k)
            *. float_of_int tile_elems /. float_of_int padded_elems
      in
      Ok
        {
          stencil = st;
          schedule;
          digest = digest_of st schedule;
          machine;
          nests;
          loops;
          tile;
          padded_tile;
          tasks;
          parallel;
          dma = (match nests with [] -> None | n :: _ -> n.Loopnest.dma);
          n_state_streams;
          n_aux_streams;
          tiles_count = Array.length tasks;
          tile_elems;
          padded_elems;
          working_set_bytes = ((nstreams * padded_elems) + tile_elems) * elem;
          reuse_factor;
          spm_capacity_bytes =
            Option.bind machine (fun (m : Machine.t) ->
                m.Machine.spm_bytes_per_unit);
        }

(* Split every task box into the part inside the core box [core_lo, core_hi)
   and the parts outside it, by peeling one slab per dimension side off the
   remaining box. Peeling is sequential on the remainder, so the produced
   boxes are pairwise disjoint and cover each task exactly — any traversal
   of the split computes every cell exactly once. Order within each half
   follows the original traversal order. *)
let split_tasks ~core_lo ~core_hi tasks =
  let interior = ref [] and shell = ref [] in
  let nonempty lo hi =
    let ok = ref true in
    Array.iteri (fun d l -> if l >= hi.(d) then ok := false) lo;
    !ok
  in
  Array.iter
    (fun ((lo : int array), (hi : int array)) ->
      let cur_lo = Array.copy lo and cur_hi = Array.copy hi in
      for d = 0 to Array.length lo - 1 do
        if cur_lo.(d) < core_lo.(d) then begin
          let b_hi = Array.copy cur_hi in
          b_hi.(d) <- min cur_hi.(d) core_lo.(d);
          if nonempty cur_lo b_hi then shell := (Array.copy cur_lo, b_hi) :: !shell;
          cur_lo.(d) <- min cur_hi.(d) core_lo.(d)
        end;
        if cur_hi.(d) > core_hi.(d) then begin
          let b_lo = Array.copy cur_lo in
          b_lo.(d) <- max cur_lo.(d) core_hi.(d);
          if nonempty b_lo cur_hi then shell := (b_lo, Array.copy cur_hi) :: !shell;
          cur_hi.(d) <- max cur_lo.(d) core_hi.(d)
        end
      done;
      if nonempty cur_lo cur_hi then interior := (cur_lo, cur_hi) :: !interior)
    tasks;
  (Array.of_list (List.rev !interior), Array.of_list (List.rev !shell))

let interior_shell t =
  let shape = t.stencil.Stencil.grid.Tensor.shape in
  let radius = Stencil.radius t.stencil in
  let core_lo = Array.copy radius in
  let core_hi =
    Array.mapi (fun d n -> max core_lo.(d) (n - radius.(d))) shape
  in
  split_tasks ~core_lo ~core_hi t.tasks

(* Grow the sweep range by [ext] cells into the halo on every face whose
   grow flag is set (a temporal block's substeps). The extension is
   materialised as the shell of the grown box split against the interior,
   so the plan's own tile tasks (and their traversal order) are preserved
   and only the ghost boxes are appended; the split boxes are disjoint, so
   every grown cell is computed exactly once. *)
let extend_tasks ~shape ~ext ~grow_low ~grow_high tasks =
  let nd = Array.length shape in
  if
    Array.length ext <> nd
    || Array.length grow_low <> nd
    || Array.length grow_high <> nd
  then invalid_arg "Plan.extend_tasks: rank mismatch";
  let ext_lo =
    Array.init nd (fun d -> if grow_low.(d) then -ext.(d) else 0)
  in
  let ext_hi =
    Array.init nd (fun d -> shape.(d) + if grow_high.(d) then ext.(d) else 0)
  in
  if ext_lo = Array.make nd 0 && ext_hi = shape then tasks
  else
    let _, sh =
      split_tasks ~core_lo:(Array.make nd 0) ~core_hi:shape
        [| (ext_lo, ext_hi) |]
    in
    Array.append tasks sh

let temporal ~shape ~radius ~depth ~grow_low ~grow_high tasks =
  let nd = Array.length shape in
  if depth < 1 then invalid_arg "Plan.temporal: depth must be >= 1";
  if Array.length radius <> nd || Array.length grow_low <> nd
     || Array.length grow_high <> nd
  then invalid_arg "Plan.temporal: rank mismatch";
  Array.init depth (fun s ->
      (* Substep [s] of a depth-k block sweeps the interior grown by
         (k-1-s) * radius into the halo on every face that has exchanged
         (deep) data; after the k substeps the interior is exact and the
         remaining extension has been consumed. *)
      let e = depth - 1 - s in
      if e = 0 then tasks
      else
        extend_tasks ~shape
          ~ext:(Array.map (fun r -> e * r) radius)
          ~grow_low ~grow_high tasks)

let compile_exn ?machine st schedule =
  match compile ?machine st schedule with
  | Ok t -> t
  | Error msg -> invalid_arg ("Plan.compile: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Pipeline graph plans.                                               *)

module G = Msc_graph.Graph

type reduce_plan = {
  rp_tasks : (int array * int array) array;
  rp_combine : (int * int) array array;
}

let combine_levels n =
  if n < 1 then invalid_arg "Plan.combine_levels: n < 1";
  let levels = ref [] in
  let stride = ref 1 in
  while !stride < n do
    let level = ref [] in
    let i = ref 0 in
    while !i + !stride < n do
      level := (!i, !i + !stride) :: !level;
      i := !i + (2 * !stride)
    done;
    levels := Array.of_list (List.rev !level) :: !levels;
    stride := 2 * !stride
  done;
  Array.of_list (List.rev !levels)

let reduce_plan t =
  { rp_tasks = t.tasks; rp_combine = combine_levels (Array.length t.tasks) }

type graph_stage_plan = {
  gs_name : string;
  gs_stencil : Stencil.t;
  gs_plan : t;
  gs_ext : int array;
  gs_buffer : int option;
}

type graph_plan = {
  gp_graph : G.t;
  gp_stages : graph_stage_plan list;
  gp_n_buffers : int;
  gp_halo : int array;
  gp_time_window : int;
  gp_merged : bool;
  gp_exchanges_per_step : int;
  gp_naive_exchanges_per_step : int;
}

let compile_graph ?machine ?shape (g : G.t) schedule =
  let halo = G.required_halo g in
  let g = G.reshape ?shape ~halo g in
  let exts = G.extensions g in
  let rec lower acc = function
    | [] -> Ok (List.rev acc)
    | (s : G.stage) :: rest -> (
        match compile ?machine s.G.stencil schedule with
        | Ok p -> lower ((s, p) :: acc) rest
        | Error e ->
            Error (Printf.sprintf "stage %s: %s" s.G.name e))
  in
  match lower [] g.G.stages with
  | Error e -> Error e
  | Ok stage_plans ->
      (* Greedy liveness-driven buffer slots: walk the topological order,
         give each intermediate the lowest free slot, then release the
         slots of dependencies whose last reader is this stage. A stage's
         own slot is allocated {e before} its dead dependencies are
         released, so a stage never writes the buffer it is reading — the
         double-buffer reuse happens one stage later. *)
      let slot = Hashtbl.create 8 in
      let free = ref [] and next = ref 0 in
      let alloc () =
        match !free with
        | i :: rest ->
            free := rest;
            i
        | [] ->
            let i = !next in
            incr next;
            i
      in
      let topo = Array.of_list g.G.stages in
      let last_reader name =
        let last = ref (-1) in
        Array.iteri
          (fun i s ->
            if List.exists (String.equal name) (G.reads s) then last := i)
          topo;
        !last
      in
      let stages =
        List.rev
          (snd
             (List.fold_left
                (fun (i, acc) ((s : G.stage), p) ->
                  let buffer =
                    if String.equal s.G.name g.G.output then None
                    else begin
                      let b = alloc () in
                      Hashtbl.replace slot s.G.name b;
                      Some b
                    end
                  in
                  List.iter
                    (fun d ->
                      if last_reader d = i then
                        match Hashtbl.find_opt slot d with
                        | Some b ->
                            free := b :: !free;
                            Hashtbl.remove slot d
                        | None -> ())
                    (G.deps g s);
                  ( i + 1,
                    {
                      gs_name = s.G.name;
                      gs_stencil = s.G.stencil;
                      gs_plan = p;
                      gs_ext = Hashtbl.find exts s.G.name;
                      gs_buffer = buffer;
                    }
                    :: acc ))
                (0, []) stage_plans))
      in
      let n_stages = List.length stages in
      Ok
        {
          gp_graph = g;
          gp_stages = stages;
          gp_n_buffers = !next;
          gp_halo = halo;
          gp_time_window = G.time_window g;
          gp_merged = g.G.merged;
          gp_exchanges_per_step = (if g.G.merged then 1 else n_stages);
          gp_naive_exchanges_per_step = n_stages;
        }

let spm_fits t =
  match t.spm_capacity_bytes with
  | None -> true
  | Some cap -> t.working_set_bytes <= cap

let outer_dims t =
  List.filter_map
    (fun (l : Loopnest.loop) ->
      match l.Loopnest.role with
      | Loopnest.Outer d -> Some d
      | Loopnest.Inner _ | Loopnest.Full _ -> None)
    t.loops

let pp ppf t =
  let par =
    match t.parallel with
    | Seq -> "seq"
    | Block n -> Printf.sprintf "block(%d)" n
    | Round_robin n -> Printf.sprintf "round_robin(%d)" n
  in
  Format.fprintf ppf "@[<v>plan %s: %d tiles, %s, working set %d B@,"
    t.stencil.Stencil.name t.tiles_count par t.working_set_bytes;
  List.iteri
    (fun depth (l : Loopnest.loop) ->
      Format.fprintf ppf "%sfor %s in [0,%d)@,"
        (String.make (2 * depth) ' ')
        l.Loopnest.name l.Loopnest.extent)
    t.loops;
  Format.fprintf ppf "@]"

module Cache = struct
  type plan = t

  type key = Stencil.t * Schedule.t

  type t = {
    machine : Machine.t option;
    tbl : (key, (plan, string) result) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create ?machine () =
    { machine; tbl = Hashtbl.create 64; hits = 0; misses = 0 }

  let compile c st schedule =
    let key = (st, schedule) in
    match Hashtbl.find_opt c.tbl key with
    | Some r ->
        c.hits <- c.hits + 1;
        r
    | None ->
        c.misses <- c.misses + 1;
        let r = compile ?machine:c.machine st schedule in
        Hashtbl.add c.tbl key r;
        r

  let hits c = c.hits
  let misses c = c.misses

  type stats = { hits : int; misses : int }

  let stats (c : t) = { hits = c.hits; misses = c.misses }
end
