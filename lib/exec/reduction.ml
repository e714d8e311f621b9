(* Grid-reduction executor. Bit-stability contract (see reduction.mli):
   sequential row-major partial per task, fixed pairwise combine tree over
   the task index. The interpreter reference below and the Jit reduce
   emitters fold in exactly the same order, so an executor holds one
   [Backend.reduce_fn], the JIT's or the reference's, and dispatches every
   task through it. *)

open Msc_ir

type t = {
  shape : int array;
  halo : int array;
  tasks : (int array * int array) array;
  partials : float array;
  pool : Msc_util.Domain_pool.t;
  reduce : Backend.reduce_fn;  (* the JIT's, or else [partial_data] *)
  compiled : bool;
  fallback : string option;
}

let tasks t = t.tasks

(* The reference partial over the flat arrays of a grid geometry, [bd]
   read by [Dot] only. *)
let partial_data ~op ~halo ~strides ad bd ~lo ~hi =
  let last = Array.length strides - 1 in
  let len = hi.(last) - lo.(last) in
  let acc = ref (Reduce.identity op) in
  if len > 0 then begin
    let coord = Array.copy lo in
    let stride_last = strides.(last) in
    let rec rows d =
      if d = last then begin
        let base = ref 0 in
        for e = 0 to last do
          let c = if e = last then lo.(last) else coord.(e) in
          base := !base + ((c + halo.(e)) * strides.(e))
        done;
        let base = !base in
        match (op : Reduce.op) with
        | Sum ->
            for c = 0 to len - 1 do
              let i = base + (c * stride_last) in
              acc := !acc +. Array.unsafe_get ad i
            done
        | Dot ->
            for c = 0 to len - 1 do
              let i = base + (c * stride_last) in
              acc := !acc +. (Array.unsafe_get ad i *. Array.unsafe_get bd i)
            done
        | Norm2 ->
            for c = 0 to len - 1 do
              let i = base + (c * stride_last) in
              let v = Array.unsafe_get ad i in
              acc := !acc +. (v *. v)
            done
        | Max_abs ->
            for c = 0 to len - 1 do
              let i = base + (c * stride_last) in
              let v = Float.abs (Array.unsafe_get ad i) in
              if v > !acc then acc := v
            done
      end
      else
        for c = lo.(d) to hi.(d) - 1 do
          coord.(d) <- c;
          rows (d + 1)
        done
    in
    rows 0
  end;
  !acc

let partial ~op ?with_ (a : Grid.t) ~lo ~hi =
  let b =
    match (with_, (op : Reduce.op)) with
    | Some g, _ ->
        if g.Grid.shape <> a.Grid.shape || g.Grid.halo <> a.Grid.halo then
          invalid_arg "Reduction.partial: with_ grid geometry mismatch";
        g
    | None, Dot -> invalid_arg "Reduction.partial: Dot needs ~with_"
    | None, _ -> a
  in
  partial_data ~op ~halo:a.Grid.halo ~strides:a.Grid.strides a.Grid.data b.Grid.data
    ~lo ~hi

let op_of_code code = List.find (fun op -> Reduce.code op = code) Reduce.all

let create ?(config = Exec.Config.default) ?(trace = Msc_trace.disabled) ?tasks
    (g : Grid.t) =
  let shape = Array.copy g.Grid.shape in
  let halo = Array.copy g.Grid.halo in
  let strides = Array.copy g.Grid.strides in
  let nd = Array.length shape in
  let tasks =
    match tasks with
    | Some ts -> ts
    | None -> [| (Array.make nd 0, Array.copy shape) |]
  in
  Array.iter
    (fun (lo, hi) ->
      if Array.length lo <> nd || Array.length hi <> nd then
        invalid_arg "Reduction.create: task rank mismatch";
      for d = 0 to nd - 1 do
        if lo.(d) < 0 || hi.(d) > shape.(d) || lo.(d) > hi.(d) then
          invalid_arg "Reduction.create: task box outside the interior"
      done)
    tasks;
  let jit, fallback =
    match config.Exec.Config.backend with
    | Backend.Interp -> (None, None)
    | Backend.Compiled_c -> (
        match Jit.compile_reduce ~trace g with
        | Ok fn -> (Some fn, None)
        | Error msg -> (None, Some msg))
  in
  let reduce =
    match jit with
    | Some fn -> fn
    | None ->
        fun code ad bd lo hi out i ->
          out.(i) <- partial_data ~op:(op_of_code code) ~halo ~strides ad bd ~lo ~hi
  in
  {
    shape;
    halo;
    tasks;
    partials = Array.make (max 1 (Array.length tasks)) 0.;
    pool = config.Exec.Config.pool;
    reduce;
    compiled = Option.is_some jit;
    fallback;
  }

let compiled t = t.compiled
let fallback t = t.fallback

let fill_partial t code ad bd i =
  let lo, hi = t.tasks.(i) in
  t.reduce code ad bd lo hi t.partials i

let geom_ok t (g : Grid.t) = g.Grid.shape = t.shape && g.Grid.halo = t.halo

let run_raw t ~op ?with_ (a : Grid.t) =
  if not (geom_ok t a) then invalid_arg "Reduction.run: grid geometry mismatch";
  (match with_ with
  | Some g when not (geom_ok t g) ->
      invalid_arg "Reduction.run: with_ grid geometry mismatch"
  | _ -> ());
  let b_data =
    match (with_, (op : Reduce.op)) with
    | Some g, _ -> g.Grid.data
    | None, Dot -> invalid_arg "Reduction.run: Dot needs ~with_"
    | None, _ -> a.Grid.data
  in
  let n = Array.length t.tasks in
  if n = 0 then Reduce.identity op
  else begin
    (* Each kernel call stores its partial into [t.partials], which the
       tree then folds in place: a one-task reduction allocates nothing
       here. *)
    let code = Reduce.code op in
    if n > 1 then
      Msc_util.Domain_pool.parallel_for t.pool ~lo:0 ~hi:n (fun i ->
          fill_partial t code a.Grid.data b_data i)
    else fill_partial t code a.Grid.data b_data 0;
    Reduce.tree_combine op t.partials
  end

let run t ~op ?with_ (a : Grid.t) =
  Reduce.finalize op (run_raw t ~op ?with_ a)
