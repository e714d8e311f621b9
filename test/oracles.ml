(* Cell-at-a-time reference implementations of the library's compiled
   halo and boundary passes. Deliberately naive: every cell is classified
   and mapped on its own, so the run lists the library compiles are
   property-tested against an independent walk. *)

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
