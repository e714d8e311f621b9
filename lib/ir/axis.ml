type parallel_mode = Serial | Threads of int | Cpe_tasks of int

type t = {
  id_var : string;
  order : int;
  start : int;
  stop : int;
  stride : int;
  parallel : parallel_mode;
}

let make ?(start = 0) ?(stride = 1) id_var ~stop ~order =
  assert (stride > 0);
  { id_var; order; start; stop; stride; parallel = Serial }

let extent t =
  if t.stop <= t.start then 0 else ((t.stop - t.start + t.stride - 1) / t.stride)

let trip_count axes = List.fold_left (fun acc ax -> acc * extent ax) 1 axes

let pp ppf t =
  let mode =
    match t.parallel with
    | Serial -> ""
    | Threads n -> Printf.sprintf " parallel(threads=%d)" n
    | Cpe_tasks n -> Printf.sprintf " parallel(cpes=%d)" n
  in
  Format.fprintf ppf "for %s in [%d,%d) step %d%s" t.id_var t.start t.stop t.stride
    mode
