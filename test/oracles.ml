(* Naive reference implementations the library's fast paths are tested
   against. The halo and boundary walkers go cell at a time: every cell
   is classified and mapped on its own, so the run lists the library
   compiles are property-tested against an independent walk. *)

module Bc = Msc_exec.Bc
module Grid = Msc_exec.Grid

(* Visit every coordinate of the box [ranges] (per-dimension [lo, hi)) in
   row-major order. *)
let iter_box ranges fn =
  let nd = Array.length ranges in
  let coord = Array.make nd 0 in
  let rec go d =
    if d = nd then fn coord
    else begin
      let lo, hi = ranges.(d) in
      for k = lo to hi - 1 do
        coord.(d) <- k;
        go (d + 1)
      done
    end
  in
  go 0

(* [Grid.fill] ([extended]: [Grid.fill_extended]) as a recursive walk:
   [fn] gets every cell's coordinate, in row-major order, in one array
   updated in place. The library's row walk must make the same calls and
   write the same bits. *)
let fill_walk ?(extended = false) (g : Grid.t) fn =
  iter_box
    (Array.mapi
       (fun d n ->
         let h = if extended then g.Grid.halo.(d) else 0 in
         (-h, n + h))
       g.Grid.shape)
    (fun coord -> Grid.set g coord (fn coord))

(* Walk every cell of the padded box, classify its out-of-range
   dimensions and map them one by one. *)
let bc_apply ?low ?high t (g : Grid.t) =
  let nd = Grid.ndim g in
  let low = Option.value low ~default:(Array.make nd true) in
  let high = Option.value high ~default:(Array.make nd true) in
  let n = g.Grid.shape and h = g.Grid.halo in
  let mapped = Array.make nd 0 in
  iter_box
    (Array.init nd (fun d -> (-h.(d), n.(d) + h.(d))))
    (fun coord ->
      let physical_out = ref false in
      Array.iteri
        (fun k c -> if (c < 0 && low.(k)) || (c >= n.(k) && high.(k)) then physical_out := true)
        coord;
      if !physical_out then
        match t with
        | Bc.Dirichlet v -> Grid.set g coord v
        | Bc.Periodic | Bc.Reflect ->
            Array.iteri
              (fun k c ->
                let out = (c < 0 && low.(k)) || (c >= n.(k) && high.(k)) in
                mapped.(k) <-
                  (if out then Option.get (Bc.mapped_coord t ~extent:n.(k) c) else c))
              coord;
            Grid.set g coord (Grid.get g mapped))

(* The slab of [g] an exchange toward [dir] involves, per dimension
   [lo, hi) in interior coordinates: [`Inner] is the data sent, [`Outer]
   the halo cells received into. *)
let halo_region (g : Grid.t) ~dir ~width ~side =
  Array.mapi
    (fun d n ->
      let w = width.(d) in
      match (dir.(d), side) with
      | 0, _ -> (0, n)
      | -1, `Inner -> (0, w)
      | 1, `Inner -> (n - w, n)
      | -1, `Outer -> (-w, 0)
      | _, _ -> (n, n + w))
    g.Grid.shape

let pack_naive g ~dir ~width =
  let cells = ref [] in
  iter_box (halo_region g ~dir ~width ~side:`Inner) (fun c -> cells := Grid.get g c :: !cells);
  let values = Array.of_list (List.rev !cells) in
  let buf = Bytes.create (8 * Array.length values) in
  Array.iteri (fun i v -> Bytes.set_int64_le buf (8 * i) (Int64.bits_of_float v)) values;
  buf

let unpack_naive g ~dir ~width payload =
  let pos = ref 0 in
  iter_box (halo_region g ~dir ~width ~side:`Outer) (fun c ->
      Grid.set g c (Int64.float_of_bits (Bytes.get_int64_le payload !pos));
      pos := !pos + 8);
  if !pos <> Bytes.length payload then invalid_arg "Oracles.unpack_naive: payload size"

(* The naive serial executor: every point of every step evaluated by
   [Expr.eval] on the full stencil expression tree, the whole state
   history kept (no ring buffer), no tiling, no parallelism, no
   compilation. It shares no evaluation code with the runtime, so it pins
   the interpreter's meaning: the runtime at its defaults must match it
   bit for bit. *)
module Reference = struct
  open Msc_ir
  module Runtime = Msc_exec.Runtime

  type t = {
    stencil : Stencil.t;
    aux : (string * Grid.t) list;
    bc : Bc.t;
    mutable history : Grid.t list;  (* newest first; index 0 = t-1 *)
  }

  let create ?(init = Runtime.default_init)
      ?(aux_init = Runtime.default_aux_init) ?(bc = Bc.Dirichlet 0.0)
      (st : Stencil.t) =
    let geometry = Grid.of_tensor st.Stencil.grid in
    let history =
      List.init (Stencil.time_window st) (fun k ->
          let g = Grid.like geometry in
          fill_walk g (init (k + 1));
          Bc.apply bc g;
          g)
    in
    let aux =
      List.map
        (fun (tensor : Tensor.t) ->
          let g = Grid.of_tensor tensor in
          fill_walk ~extended:true g (aux_init tensor.Tensor.name);
          (tensor.Tensor.name, g))
        (Runtime.aux_tensors_of st)
    in
    { stencil = st; aux; bc; history }

  let state t ~dt = List.nth t.history (dt - 1)
  let current t = state t ~dt:1

  let eval_kernel_point t (k : Kernel.t) (src : Grid.t) coord =
    let load (a : Expr.access) =
      let c = Array.mapi (fun d v -> v + a.Expr.offsets.(d)) coord in
      if String.equal a.Expr.tensor k.Kernel.input.Tensor.name then Grid.get src c
      else Grid.get (List.assoc a.Expr.tensor t.aux) c
    in
    let var name =
      let rec find d = function
        | [] -> invalid_arg ("Oracles.Reference: unknown var " ^ name)
        | v :: rest ->
            if String.equal v name then float_of_int coord.(d) else find (d + 1) rest
      in
      find 0 k.Kernel.index_vars
    in
    Expr.eval ~bindings:k.Kernel.bindings ~load ~var k.Kernel.expr

  let rec eval_point t (e : Stencil.expr) coord =
    match e with
    | Stencil.Apply (k, dt) -> eval_kernel_point t k (state t ~dt) coord
    | Stencil.State dt -> Grid.get (state t ~dt) coord
    | Stencil.Scale (c, a) -> c *. eval_point t a coord
    | Stencil.Sum (a, b) -> eval_point t a coord +. eval_point t b coord
    | Stencil.Diff (a, b) -> eval_point t a coord -. eval_point t b coord

  let step t =
    let out = Grid.like (current t) in
    Grid.iter_interior out (fun coord ->
        Grid.set out coord (eval_point t t.stencil.Stencil.expr (Array.copy coord)));
    Bc.apply t.bc out;
    t.history <- out :: t.history

  let run t n =
    for _ = 1 to n do
      step t
    done
end

(* The runtime at its defaults (the interpreter, untiled, sequential) and
   [Reference] run [steps] timesteps from the same start; true when the
   final states agree bit for bit. *)
let interp_matches_reference ?init ?aux_init ?bc ~steps st =
  let module Runtime = Msc_exec.Runtime in
  let rt = Runtime.create ?init ?aux_init ?bc st in
  let naive = Reference.create ?init ?aux_init ?bc st in
  Runtime.run rt steps;
  Reference.run naive steps;
  (Runtime.current rt).Grid.data = (Reference.current naive).Grid.data

(* The message layer's contract as a plain model: one FIFO per
   (src, dst, tag) and three counters. [Mpi_sim]'s lock-free mailboxes
   are property-tested against it. *)
module Mpi_sim_ref = struct
  type t = {
    queues : (int * int * int, Bytes.t Queue.t) Hashtbl.t;
    mutable messages : int;
    mutable bytes : int;
  }

  let create () = { queues = Hashtbl.create 16; messages = 0; bytes = 0 }

  let queue t key =
    match Hashtbl.find_opt t.queues key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add t.queues key q;
        q

  let send t ~src ~dst ~tag payload =
    Queue.push (Bytes.copy payload) (queue t (src, dst, tag));
    t.messages <- t.messages + 1;
    t.bytes <- t.bytes + Bytes.length payload

  let recv t ~dst ~src ~tag = Queue.take_opt (queue t (src, dst, tag))
  let messages_sent t = t.messages
  let bytes_sent t = t.bytes
  let pending_messages t = Hashtbl.fold (fun _ q n -> n + Queue.length q) t.queues 0
end
