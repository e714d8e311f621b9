module Grid = Msc_exec.Grid

(* The slab of the rank's grid involved in an exchange toward [dir].
   [`Inner] = data we own and send; [`Outer] = halo cells we receive into.
   Returns per-dimension [lo, hi) in interior coordinates (outer slabs extend
   into negative / beyond-extent coordinates). *)
let region (g : Grid.t) ~dir ~width ~side =
  let nd = Grid.ndim g in
  Array.init nd (fun d ->
      let n = g.Grid.shape.(d) and w = width.(d) in
      match (dir.(d), side) with
      | 0, _ -> (0, n)
      | -1, `Inner -> (0, w)
      | 1, `Inner -> (n - w, n)
      | -1, `Outer -> (-w, 0)
      | 1, `Outer -> (n, n + w)
      | _ -> invalid_arg "Halo.region: direction entries must be -1/0/1")

let payload_elems g ~dir ~width =
  Array.fold_left (fun acc (lo, hi) -> acc * (hi - lo)) 1
    (region g ~dir ~width ~side:`Inner)

(* A slab as flat [| off0; len0; off1; len1; ... |] runs over the grid's
   data, in row-major slab order (the payload order). The innermost
   dimension has stride 1, so each row of the slab is one run; a run that
   starts where the previous one ends extends it. *)
let runs (g : Grid.t) ranges =
  let nd = Grid.ndim g in
  let last = nd - 1 in
  let h = g.Grid.halo and strides = g.Grid.strides in
  let lo_last, hi_last = ranges.(last) in
  let len = hi_last - lo_last in
  let acc = ref [] in
  let rec go d off =
    if d = last then begin
      let base = off + lo_last + h.(last) in
      match !acc with
      | (o, l) :: rest when o + l = base -> acc := (o, l + len) :: rest
      | _ -> acc := (base, len) :: !acc
    end
    else
      let lo, hi = ranges.(d) in
      for k = lo to hi - 1 do
        go (d + 1) (off + ((k + h.(d)) * strides.(d)))
      done
  in
  if len > 0 then go 0 0;
  Array.of_list (List.concat_map (fun (o, l) -> [ o; l ]) (List.rev !acc))

(* Payloads are float64 little-endian. Each stub copies one grid's slab
   between its data and the payload at a byte position, one copy per run;
   the callers check the geometry and the payload size first. *)
external pack_runs : float array -> int array -> Bytes.t -> int -> unit
  = "msc_halo_pack"
[@@noalloc]

external unpack_runs : float array -> int array -> Bytes.t -> int -> unit
  = "msc_halo_unpack"
[@@noalloc]

(* One neighbour: the resolved endpoints, both slabs as runs, and the
   per-grid payload size. The neighbour's slab toward us spans the same
   extents as ours toward it (the two ranks differ only along the
   dimensions [dir] crosses, where both slabs are [width] thick), so the
   payload received on a link is recycled as the next one sent on it:
   buffers ping-pong between neighbours and a steady-state exchange
   allocates no payloads. Ownership stays exclusive — a buffer is packed only
   after its receiver has unpacked it. *)
type link = {
  peer : int;  (* the neighbour's rank *)
  port : Mpi_sim.port;  (* to the neighbour at [dir], tag = [dir]'s index *)
  slot : Mpi_sim.slot;  (* from the neighbour at [dir], tag = [-dir]'s *)
  inner : int array;
  outer : int array;
  elems : int;
  mutable buf : Bytes.t;  (* last payload received, reused by [post] *)
  mutable arrived : bool;  (* [buf] holds this exchange's payload, not yet unpacked *)
}

type plan = {
  mpi : Mpi_sim.t;
  trace : Msc_trace.t;
  rank : int;
  shape : int array;
  halo : int array;
  links : link array;
}

let plan ?periodic ?(trace = Msc_trace.disabled) mpi (decomp : Decomp.t) ~rank
    ~(grid : Grid.t) ~width ~faces_only =
  let nd = Array.length decomp.Decomp.global in
  let links =
    List.filter_map
      (fun dir ->
        match Decomp.neighbor ?periodic decomp ~rank ~dir with
        | None -> None
        | Some nb ->
            let opposite = Array.map (fun v -> -v) dir in
            Some
              {
                peer = nb;
                port =
                  Mpi_sim.send_port mpi ~src:rank ~dst:nb
                    ~tag:(Decomp.dir_index ~ndim:nd dir);
                slot =
                  Mpi_sim.recv_slot mpi ~dst:rank ~src:nb
                    ~tag:(Decomp.dir_index ~ndim:nd opposite);
                inner = runs grid (region grid ~dir ~width ~side:`Inner);
                outer = runs grid (region grid ~dir ~width ~side:`Outer);
                elems = payload_elems grid ~dir ~width;
                buf = Bytes.empty;
                arrived = false;
              })
      (Decomp.directions ~ndim:nd ~faces_only)
  in
  {
    mpi;
    trace;
    rank;
    shape = Array.copy grid.Grid.shape;
    halo = Array.copy grid.Grid.halo;
    links = Array.of_list links;
  }

let peers p = Array.map (fun l -> l.peer) p.links

let check p (grids : Grid.t array) name =
  for i = 0 to Array.length grids - 1 do
    let g = grids.(i) in
    if g.Grid.shape <> p.shape || g.Grid.halo <> p.halo then
      invalid_arg
        ("Halo." ^ name ^ ": the grid's shape or halo differs from the plan's")
  done

let pack l (grids : Grid.t array) =
  let per = 8 * l.elems in
  let size = per * Array.length grids in
  let buf = if Bytes.length l.buf = size then l.buf else Bytes.create size in
  l.buf <- Bytes.empty;
  for i = 0 to Array.length grids - 1 do
    pack_runs grids.(i).Grid.data l.inner buf (i * per)
  done;
  buf

let unpack l (grids : Grid.t array) payload =
  let per = 8 * l.elems in
  if Bytes.length payload <> per * Array.length grids then
    invalid_arg
      (Printf.sprintf "Halo.complete: payload %d B but %d slabs of %d B"
         (Bytes.length payload) (Array.length grids) per);
  for i = 0 to Array.length grids - 1 do
    unpack_runs grids.(i).Grid.data l.outer payload (i * per)
  done

let post p grids =
  check p grids "post";
  let trace = p.trace in
  (* One wall-clock read stamps the rank's whole direction fan, and each
     packed payload is handed over rather than copied. *)
  let at = Mpi_sim.clock p.mpi in
  let ts = Msc_trace.begin_span trace in
  let bytes = ref 0 in
  for i = 0 to Array.length p.links - 1 do
    let l = p.links.(i) in
    let payload = pack l grids in
    bytes := !bytes + Bytes.length payload;
    Mpi_sim.port_send_at at l.port payload
  done;
  Msc_trace.end_span_on ~tid:p.rank trace "halo.pack" ts;
  if Msc_trace.enabled trace then
    Msc_trace.add_on ~tid:p.rank trace "halo.bytes" (float_of_int !bytes)

(* Unpack every link's claimed payload under one ["halo.unpack"] span. *)
let unpack_all p grids =
  let ts = Msc_trace.begin_span p.trace in
  for i = 0 to Array.length p.links - 1 do
    let l = p.links.(i) in
    l.arrived <- false;
    unpack l grids l.buf
  done;
  Msc_trace.end_span_on ~tid:p.rank p.trace "halo.unpack" ts

let try_complete p grids =
  check p grids "try_complete";
  let missing = ref 0 in
  for i = 0 to Array.length p.links - 1 do
    let l = p.links.(i) in
    if not l.arrived then begin
      let payload = Mpi_sim.slot_poll l.slot in
      if payload == Mpi_sim.nothing then incr missing
      else begin
        l.buf <- payload;
        l.arrived <- true
      end
    end
  done;
  !missing = 0
  && begin
       (* Nothing left to wait for: the exchange span is empty. *)
       let ts = Msc_trace.begin_span p.trace in
       Msc_trace.end_span_on ~tid:p.rank p.trace "halo.exchange" ts;
       unpack_all p grids;
       true
     end

let complete ?timeout_s p grids =
  check p grids "complete";
  let ts = Msc_trace.begin_span p.trace in
  for i = 0 to Array.length p.links - 1 do
    let l = p.links.(i) in
    if not l.arrived then begin
      l.buf <- Mpi_sim.slot_wait ?timeout_s l.slot;
      l.arrived <- true
    end
  done;
  Msc_trace.end_span_on ~tid:p.rank p.trace "halo.exchange" ts;
  unpack_all p grids
