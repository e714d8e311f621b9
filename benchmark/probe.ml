(* Host probes: a monotonic clock, peak resident memory, the last-level
   cache size and a STREAM-triad bandwidth measurement. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> None)
    (read_lines "/proc/self/status")
  |> Option.value ~default:0.0

(* Size in bytes of cpu0's highest-level cache, from sysfs. *)
let llc_bytes () =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  let field idx name =
    match read_lines (Filename.concat (Filename.concat dir idx) name) with
    | l :: _ -> Some (String.trim l)
    | [] -> None
  in
  Array.fold_left
    (fun best idx ->
      match (field idx "level", field idx "size") with
      | Some level, Some size -> (
          let bytes =
            Scanf.sscanf_opt size "%d%s" (fun n unit ->
                match unit with
                | "K" -> Some (n * 1024)
                | "M" -> Some (n * 1024 * 1024)
                | "" -> Some n
                | _ -> None)
            |> Option.join
          in
          match (int_of_string_opt level, bytes, best) with
          | Some l, Some b, Some (bl, _) when l > bl -> Some (l, b)
          | Some l, Some b, None -> Some (l, b)
          | _ -> best)
      | _ -> best)
    None entries
  |> Option.map snd

external triad :
  float array -> float array -> float array -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "msc_bench_triad_byte" "msc_bench_triad"
[@@noalloc]

(* Best-of-[reps] triad bandwidth in GB/s with [workers] domains, each
   sweeping its own contiguous share of three [bytes_per_array] arrays.
   Counts 24 bytes per element (two reads, one write), as STREAM does. *)
let triad_gbs ~workers ~bytes_per_array ~reps =
  let n = bytes_per_array / 8 in
  let pool = Msc.Domain_pool.create workers in
  Fun.protect
    ~finally:(fun () -> Msc.Domain_pool.shutdown pool)
    (fun () ->
      let a = Array.create_float n and b = Array.create_float n and c = Array.create_float n in
      let share w = (w * n / workers, (w + 1) * n / workers) in
      let each f =
        Msc.Domain_pool.parallel_for pool ~lo:0 ~hi:workers (fun w ->
            let lo, hi = share w in
            f lo hi)
      in
      (* First touch on the domain that later sweeps the share. *)
      each (fun lo hi ->
          Array.fill a lo (hi - lo) 0.0;
          Array.fill b lo (hi - lo) 1.0;
          Array.fill c lo (hi - lo) 2.0);
      let best = ref infinity in
      for _ = 1 to reps do
        let (), dt = timed (fun () -> each (fun lo hi -> triad a b c lo hi)) in
        best := Float.min !best dt
      done;
      if a.(n - 1) <> 7.0 then failwith "triad: wrong result";
      24.0 *. float_of_int n /. !best /. 1e9)
