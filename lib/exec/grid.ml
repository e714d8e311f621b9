type t = {
  shape : int array;
  halo : int array;
  padded : int array;
  strides : int array;
  data : float array;
}

let strides_of ~shape ~halo =
  let ndim = Array.length shape in
  let strides = Array.make ndim 1 in
  for d = ndim - 2 downto 0 do
    strides.(d) <- strides.(d + 1) * (shape.(d + 1) + (2 * halo.(d + 1)))
  done;
  strides

let create ~shape ~halo =
  let ndim = Array.length shape in
  if ndim = 0 then invalid_arg "Grid.create: empty shape";
  if Array.length halo <> ndim then invalid_arg "Grid.create: halo rank mismatch";
  Array.iter (fun d -> if d <= 0 then invalid_arg "Grid.create: bad extent") shape;
  Array.iter (fun h -> if h < 0 then invalid_arg "Grid.create: bad halo") halo;
  let padded = Array.mapi (fun d n -> n + (2 * halo.(d))) shape in
  let strides = strides_of ~shape ~halo in
  let total = padded.(0) * strides.(0) in
  { shape; halo; padded; strides; data = Array.make total 0.0 }

let of_tensor (tensor : Msc_ir.Tensor.t) =
  create ~shape:tensor.Msc_ir.Tensor.shape ~halo:tensor.Msc_ir.Tensor.halo

let like t = create ~shape:t.shape ~halo:t.halo

let copy t = { t with data = Array.copy t.data }

let ndim t = Array.length t.shape
let interior_elems t = Array.fold_left ( * ) 1 t.shape

let flat_index t coord =
  let acc = ref 0 in
  for d = 0 to Array.length coord - 1 do
    acc := !acc + ((coord.(d) + t.halo.(d)) * t.strides.(d))
  done;
  !acc

let get t coord = t.data.(flat_index t coord)
let set t coord v = t.data.(flat_index t coord) <- v

let iter_interior t fn =
  let nd = ndim t in
  let coord = Array.make nd 0 in
  let rec go d =
    if d = nd then fn coord
    else
      for k = 0 to t.shape.(d) - 1 do
        coord.(d) <- k;
        go (d + 1)
      done
  in
  go 0

(* Write [fn coord] into every cell of the box [lo, hi) (per dimension, in
   interior coordinates) in row-major order, one innermost row at a time:
   the row's flat index advances with the outer coordinates instead of
   being recomputed per point. [fn] gets one coordinate array, updated in
   place, exactly as a recursive walk would pass it. *)
let fill_box t ~lo ~hi fn =
  let nd = ndim t in
  let last = nd - 1 in
  let data = t.data and strides = t.strides in
  let coord = Array.copy lo in
  let row = ref (flat_index t coord) in
  let more = ref true in
  while !more do
    let base = !row - lo.(last) in
    for k = lo.(last) to hi.(last) - 1 do
      coord.(last) <- k;
      Array.unsafe_set data (base + k) (fn coord)
    done;
    (* Advance the outer coordinates like an odometer. *)
    let d = ref (last - 1) in
    more := false;
    while !d >= 0 && not !more do
      let c = coord.(!d) + 1 in
      if c < hi.(!d) then begin
        coord.(!d) <- c;
        row := !row + strides.(!d);
        more := true
      end
      else begin
        row := !row - ((c - 1 - lo.(!d)) * strides.(!d));
        coord.(!d) <- lo.(!d);
        decr d
      end
    done
  done

let fill ?rows t fn =
  let lo = Array.make (ndim t) 0 and hi = Array.copy t.shape in
  Option.iter
    (fun (a, b) ->
      if a < 0 || b > t.shape.(0) then invalid_arg "Grid.fill: rows out of range";
      lo.(0) <- a;
      hi.(0) <- b)
    rows;
  if lo.(0) < hi.(0) then fill_box t ~lo ~hi fn

let fill_extended t fn =
  fill_box t ~lo:(Array.map (fun h -> -h) t.halo)
    ~hi:(Array.mapi (fun d n -> n + t.halo.(d)) t.shape)
    fn

let fill_random t rng = fill t (fun _ -> Msc_util.Prng.uniform rng)

let fill_all t v = Array.fill t.data 0 (Array.length t.data) v

let in_interior t coord =
  let ok = ref true in
  Array.iteri (fun d c -> if c < 0 || c >= t.shape.(d) then ok := false) coord;
  !ok

let clear_halo t =
  (* Walk the padded box; zero every cell outside the interior. *)
  let nd = ndim t in
  let coord = Array.make nd 0 in
  let rec go d =
    if d = nd then begin
      let interior_coord = Array.mapi (fun k c -> c - t.halo.(k)) coord in
      if not (in_interior t interior_coord) then begin
        let flat = ref 0 in
        Array.iteri (fun k c -> flat := !flat + (c * t.strides.(k))) coord;
        t.data.(!flat) <- 0.0
      end
    end
    else
      for k = 0 to t.padded.(d) - 1 do
        coord.(d) <- k;
        go (d + 1)
      done
  in
  go 0

let blit_interior ~src ~dst =
  if src.shape <> dst.shape then invalid_arg "Grid.blit_interior: shape mismatch";
  (* Rows are contiguous in both grids even when their halos differ, so the
     copy is one [Array.blit] per innermost row. *)
  let nd = ndim src in
  let last = nd - 1 in
  let len = src.shape.(last) in
  let coord = Array.make nd 0 in
  let rec go d =
    if d = last then
      Array.blit src.data (flat_index src coord) dst.data (flat_index dst coord) len
    else
      for k = 0 to src.shape.(d) - 1 do
        coord.(d) <- k;
        go (d + 1)
      done
  in
  go 0

let max_abs t =
  let acc = ref 0.0 in
  iter_interior t (fun coord -> acc := Float.max !acc (Float.abs (get t coord)));
  !acc

let max_rel_error ~reference t =
  if reference.shape <> t.shape then invalid_arg "Grid.max_rel_error: shape mismatch";
  let worst = ref 0.0 in
  iter_interior reference (fun coord ->
      let a = get reference coord and b = get t coord in
      let denom = Float.max (Float.abs a) 1.0 in
      worst := Float.max !worst (Float.abs (a -. b) /. denom));
  !worst

let checksum t =
  let acc = ref 0.0 in
  iter_interior t (fun coord -> acc := !acc +. get t coord);
  !acc

let magic = "MSCGRID1"

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      let buf = Bytes.create 8 in
      let emit_int n =
        Bytes.set_int64_le buf 0 (Int64.of_int n);
        output_bytes oc buf
      in
      emit_int (ndim t);
      Array.iter emit_int t.shape;
      Array.iter emit_int t.halo;
      Array.iter
        (fun v ->
          Bytes.set_int64_le buf 0 (Int64.bits_of_float v);
          output_bytes oc buf)
        t.data)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fail msg = invalid_arg (Printf.sprintf "Grid.load %s: %s" path msg) in
      let header = really_input_string ic (String.length magic) in
      if not (String.equal header magic) then fail "bad magic";
      let buf = Bytes.create 8 in
      let read_int () =
        really_input ic buf 0 8;
        Int64.to_int (Bytes.get_int64_le buf 0)
      in
      let nd = read_int () in
      if nd < 1 || nd > 8 then fail "implausible rank";
      let shape = Array.init nd (fun _ -> read_int ()) in
      let halo = Array.init nd (fun _ -> read_int ()) in
      let t =
        try create ~shape ~halo with Invalid_argument m -> fail m
      in
      (try
         for i = 0 to Array.length t.data - 1 do
           really_input ic buf 0 8;
           t.data.(i) <- Int64.float_of_bits (Bytes.get_int64_le buf 0)
         done
       with End_of_file -> fail "truncated data");
      t)

let pp_stats ppf t =
  Format.fprintf ppf "grid[%s] halo[%s] max|x|=%.6g sum=%.6g"
    (String.concat "," (Array.to_list (Array.map string_of_int t.shape)))
    (String.concat "," (Array.to_list (Array.map string_of_int t.halo)))
    (max_abs t) (checksum t)
