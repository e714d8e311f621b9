(* Per-step wall times and the end-to-end numbers derived from them. *)

type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 1024 0.0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let samples b = Array.sub b.data 0 b.len

type summary = {
  steps : int;
  mpts_per_s : float;  (** million point-updates per second *)
  p50_ms : float;
  p90_ms : float;
}

(* Interference from other tenants of a shared host only ever adds time,
   and it comes and goes within seconds. So the timed steps are split
   into [blocks] consecutive blocks of equal step count, and each
   statistic is the best value any block reaches: the throughput of the
   fastest block, and the lowest block median and 90th percentile. *)
let default_blocks = 20

(* [summarize ~points secs]: one program's timed steps, each updating
   [points] grid points and taking [secs.(i)] seconds. *)
let summarize ?(blocks = default_blocks) ~points secs =
  let n = Array.length secs in
  if n = 0 then invalid_arg "Steps.summarize: no steps";
  let b = max 1 (min blocks n) in
  let per_block =
    List.init b (fun i ->
        let lo = i * n / b and hi = (i + 1) * n / b in
        let xs = Array.sub secs lo (hi - lo) in
        let ms = Array.map (fun s -> s *. 1e3) xs in
        ( points *. float_of_int (hi - lo) /. Array.fold_left ( +. ) 0.0 xs /. 1e6,
          Msc.Stats.percentile ms 50.0,
          Msc.Stats.percentile ms 90.0 ))
  in
  let best f pick = List.fold_left (fun acc x -> pick acc (f x)) (f (List.hd per_block)) per_block in
  {
    steps = n;
    mpts_per_s = best (fun (m, _, _) -> m) Float.max;
    p50_ms = best (fun (_, p, _) -> p) Float.min;
    p90_ms = best (fun (_, _, p) -> p) Float.min;
  }

(* A workload running several programs reports the geometric mean of each
   program's number, so no program's scale dominates. *)
let combine = function
  | [] -> invalid_arg "Steps.combine: no programs"
  | [ s ] -> s
  | ss ->
      let g f = Msc.Stats.geomean (Array.of_list (List.map f ss)) in
      {
        steps = List.fold_left (fun acc s -> acc + s.steps) 0 ss;
        mpts_per_s = g (fun s -> s.mpts_per_s);
        p50_ms = g (fun s -> s.p50_ms);
        p90_ms = g (fun s -> s.p90_ms);
      }
