type t = Dirichlet of float | Periodic | Reflect

let mapped_coord t ~extent c =
  if c >= 0 && c < extent then Some c
  else
    match t with
    | Dirichlet _ -> None
    | Periodic -> Some (((c mod extent) + extent) mod extent)
    | Reflect -> Some (if c < 0 then -c - 1 else (2 * extent) - c - 1)

let check_masks ?low ?high t (g : Grid.t) =
  let nd = Grid.ndim g in
  let low = match low with Some a -> a | None -> Array.make nd true in
  let high = match high with Some a -> a | None -> Array.make nd true in
  if Array.length low <> nd || Array.length high <> nd then
    invalid_arg "Bc.apply: mask rank mismatch";
  (match t with
  | Reflect | Periodic ->
      Array.iteri
        (fun d h ->
          if h > g.Grid.shape.(d) then
            invalid_arg "Bc.apply: halo wider than the interior")
        g.Grid.halo
  | Dirichlet _ -> ());
  (low, high)

(* A compiled refresh: run ops over the padded box in ascending
   destination order, seven ints each:
   [kind; dst; src; len; count; dst_step; src_step] applies [kind] to the
   run of [len] cells at [dst] (reading from [src]), [count] times, the
   r-th time at [dst + r*dst_step] / [src + r*src_step]. *)
let op_fill = 0 (* the run takes the Dirichlet value *)
let op_copy = 1 (* ascending copy of [src, src+len) to [dst, dst+len) *)
let op_reverse = 2 (* cell [dst+k] takes [src-k]: Reflect along the last dim *)
let op_size = 7

type plan = {
  shape : int array;
  halo : int array;
  value : float;
  ops : int array;
}

(* Walk the padded box one row (innermost run) at a time, in memory order.
   A cell is refreshed iff at least one of its out-of-range dimensions sits
   on a masked (physical) face. Its source maps every physical-out
   dimension into the interior (Periodic wraps, Reflect mirrors) and keeps
   the others, so a source cell is never itself a refreshed cell and the
   order of the ops is immaterial. Within a row the Lo [-h,0) / In [0,n) /
   Hi [n,n+h) segments of the last dimension each become one run. A run
   that continues the previous one on both sides extends it (a Dirichlet
   face plane is a single fill); a finished run that repeats the one
   before it at a fixed step folds into its count (the two halo cells
   between consecutive interior rows: one op per plane of a 3-D grid). *)
let compile ?low ?high t (g : Grid.t) =
  let nd = Grid.ndim g in
  let low, high = check_masks ?low ?high t g in
  let n = g.Grid.shape and h = g.Grid.halo and strides = g.Grid.strides in
  let last = nd - 1 in
  let ops = ref (Array.make (16 * op_size) 0) and n_ops = ref 0 in
  (* Fold the last op into the one before it when it repeats that op's
     run at the same step. *)
  let fold_last () =
    let a = !ops and j = op_size * (!n_ops - 2) in
    let i = j + op_size in
    if !n_ops >= 2 && a.(j) = a.(i) && a.(j + 3) = a.(i + 3) && a.(i + 4) = 1 then begin
      let c = a.(j + 4) in
      let ds = a.(i + 1) - (a.(j + 1) + ((c - 1) * a.(j + 5)))
      and ss = a.(i + 2) - (a.(j + 2) + ((c - 1) * a.(j + 6))) in
      if c = 1 || (ds = a.(j + 5) && ss = a.(j + 6)) then begin
        if c = 1 then begin
          a.(j + 5) <- ds;
          a.(j + 6) <- ss
        end;
        a.(j + 4) <- c + 1;
        decr n_ops
      end
    end
  in
  let emit kind dst src len =
    let a = !ops and i = op_size * (!n_ops - 1) in
    if
      !n_ops > 0
      && a.(i) = kind
      && a.(i + 4) = 1
      && a.(i + 1) + a.(i + 3) = dst
      && (kind = op_fill
         || (kind = op_copy && a.(i + 2) + a.(i + 3) = src)
         || (kind = op_reverse && a.(i + 2) - a.(i + 3) = src))
    then a.(i + 3) <- a.(i + 3) + len
    else begin
      fold_last ();
      if op_size * (!n_ops + 1) > Array.length !ops then begin
        let b = Array.make (2 * Array.length !ops) 0 in
        Array.blit !ops 0 b 0 (Array.length !ops);
        ops := b
      end;
      Array.blit [| kind; dst; src; len; 1; 0; 0 |] 0 !ops (op_size * !n_ops) op_size;
      incr n_ops
    end
  in
  let map_c d c =
    match t with
    | Dirichlet _ -> c
    | Periodic -> if c < 0 then c + n.(d) else if c >= n.(d) then c - n.(d) else c
    | Reflect -> if c < 0 then -c - 1 else if c >= n.(d) then (2 * n.(d)) - c - 1 else c
  in
  let hl = h.(last) and nl = n.(last) and sl = strides.(last) in
  (* One last-dimension segment [a, a+len) of a row. [phys] marks it as a
     masked face of the last dimension (its source is mapped there too). *)
  let segment dst_row src_row outer_phys ~phys a len =
    if len > 0 && (outer_phys || phys) then begin
      let dst = dst_row + ((a + hl) * sl) in
      match t with
      | Dirichlet _ -> emit op_fill dst 0 len
      | Periodic | Reflect ->
          if not phys then emit op_copy dst (src_row + ((a + hl) * sl)) len
          else
            let src = src_row + ((map_c last a + hl) * sl) in
            emit (if t = Periodic then op_copy else op_reverse) dst src len
    end
  in
  let rec rows d dst_off src_off outer_phys =
    if d = last then begin
      segment dst_off src_off outer_phys ~phys:low.(last) (-hl) hl;
      segment dst_off src_off outer_phys ~phys:false 0 nl;
      segment dst_off src_off outer_phys ~phys:high.(last) nl hl
    end
    else
      for c = -h.(d) to n.(d) + h.(d) - 1 do
        let p = (c < 0 && low.(d)) || (c >= n.(d) && high.(d)) in
        let src_c = if p then map_c d c else c in
        rows (d + 1)
          (dst_off + ((c + h.(d)) * strides.(d)))
          (src_off + ((src_c + h.(d)) * strides.(d)))
          (outer_phys || p)
      done
  in
  rows 0 0 0 false;
  fold_last ();
  {
    shape = Array.copy n;
    halo = Array.copy h;
    value = (match t with Dirichlet v -> v | Periodic | Reflect -> 0.0);
    ops = Array.sub !ops 0 (op_size * !n_ops);
  }

let run p (g : Grid.t) =
  if g.Grid.shape <> p.shape || g.Grid.halo <> p.halo then
    invalid_arg "Bc.run: the grid's shape or halo differs from the plan's";
  let data = g.Grid.data and ops = p.ops and v = p.value in
  for i = 0 to (Array.length ops / op_size) - 1 do
    let o = op_size * i in
    let kind = ops.(o) and len = ops.(o + 3) in
    for r = 0 to ops.(o + 4) - 1 do
      let dst = ops.(o + 1) + (r * ops.(o + 5))
      and src = ops.(o + 2) + (r * ops.(o + 6)) in
      (* Short runs (the seams between rows) stay out of the C fill/blit
         calls. *)
      if kind = op_fill then
        if len > 8 then Array.fill data dst len v
        else
          for k = dst to dst + len - 1 do
            Array.unsafe_set data k v
          done
      else if kind = op_copy then
        if len > 8 then Array.blit data src data dst len
        else
          for k = 0 to len - 1 do
            Array.unsafe_set data (dst + k) (Array.unsafe_get data (src + k))
          done
      else
        for k = 0 to len - 1 do
          Array.unsafe_set data (dst + k) (Array.unsafe_get data (src - k))
        done
    done
  done

let apply ?low ?high t g = run (compile ?low ?high t g) g

let pp ppf = function
  | Dirichlet v -> Format.fprintf ppf "dirichlet(%g)" v
  | Periodic -> Format.pp_print_string ppf "periodic"
  | Reflect -> Format.pp_print_string ppf "reflect"

let equal a b = a = b
