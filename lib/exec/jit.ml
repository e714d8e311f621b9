(* Runtime kernel compilation: emit one fused C kernel for a whole sweep
   (or a reduction kernel for a grid geometry), compile it with the host
   toolchain, and load it back as a Backend.sweep_fn / Backend.reduce_fn.
   See jit.mli for the cache layout and backend.mli for the calling
   conventions.

   Bit-identity with the interpreter is a hard contract (for every value
   but a NaN's sign and payload, which gcc treats as unspecified), kept by
   emitting the kernel's own expression tree in the interpreter's order:

   - a kernel that is a left-associated [+]/[-] chain of simple products
     lowers to that chain ([chain_products]), one fold unit per product,
     with nothing merged, folded across products or re-associated; every
     other kernel renders as one whole tree expression;
   - constants are printed as hex float literals (exact round-trip);
   - C kernels are compiled with -ffp-contract=off (GCC defaults to
     contraction, and a fused multiply-add rounds differently);
   - trees render Expr.eval's exact operation set: libm calls on both
     sides, which gcc may not fold ([c_sweep_cmd]), and Float.min/Float.max
     ported to C by hand (fmin/fmax differ on NaN and signed zero);
   - fused sweeps are write-through only and fold the terms through one
     accumulator, [acc = t0; acc = acc + (s1 * t1); ...]: the
     Backend.sweep_fn fold Interp.compile_sweep performs point by point;
   - a store/load roundtrip of a float is exact, so a long C sweep can
     run as a sequence of passes of at most 16 fold units (one chain
     product, or one whole tree or State term), parking each point's
     accumulator and current term partial in stack rows between passes:
     every point still performs the same operations in the same order;
   - every pass reads its coefficients, fold scales, array slots and row
     anchors from [static const] tables, and the value a table holds is
     the literal the emitter would have printed, so moving it out of the
     code changes no operation. *)

open Msc_ir

external dlopen_sym : string -> string -> nativeint = "msc_jit_dlopen"

external c_call_sweep :
  nativeint ->
  float array array ->
  float array ->
  float array array ->
  int array ->
  int array ->
  int array ->
  unit = "msc_jit_call_sweep_bytecode" "msc_jit_call_sweep_native"
[@@noalloc]

external c_call_reduce :
  nativeint ->
  int ->
  float array ->
  float array ->
  int array ->
  int array ->
  float array ->
  int ->
  unit = "msc_jit_call_reduce_bytecode" "msc_jit_call_reduce_native"
[@@noalloc]

(* Emitter-version salt, folded into *every* artifact key (fused sweeps,
   reductions) and embedded in the artifact file names: bump whenever an
   emitter changes the generated code for the same specs, or
   $MSC_KERNEL_CACHE keeps serving the old code shape. History: v2 = sweep
   row blocking + host-arch flags; v3 = uniform salting of all emitters +
   reduction kernels; v4 = write-through-only sweeps, long C sweeps cut
   into tap-group passes; v5 = kernels lowered from the tree alone (exact
   product chains without a [0.0 +] lead, or whole trees); v6 = the 4-row
   block only on 2-D single-pass sweeps (3-D ones walk one row at a time);
   v7 = table-driven passes, one shared function per pass shape; v8 = every
   sweep rendered as table-driven passes, the 2-D row block as the 4 row
   lanes of a single pass, and libm calls never folded by gcc. *)
let emitter_version = "v8"

type stats = {
  memo_hits : int;
  disk_hits : int;
  compiles : int;
  failures_unsupported : int;
  failures_toolchain : int;
}

let lock = Mutex.create ()
let memo_hits = ref 0
let disk_hits = ref 0
let compiles = ref 0
let failures_unsupported = ref 0
let failures_toolchain = ref 0

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let stats () =
  with_lock (fun () ->
      {
        memo_hits = !memo_hits;
        disk_hits = !disk_hits;
        compiles = !compiles;
        failures_unsupported = !failures_unsupported;
        failures_toolchain = !failures_toolchain;
      })

let cache_dir () =
  match Sys.getenv_opt "MSC_KERNEL_CACHE" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "msc-kernels"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir && parent <> "" then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* [Sys.command] goes through /bin/sh by absolute path, so toolchain
   discovery honours the *current* PATH — a stripped PATH cleanly reports
   "not found" rather than crashing, which is what the fallback tests
   exercise. Re-checked on every compile, never cached. *)
let have_tool tool =
  Sys.command (Printf.sprintf "command -v %s > /dev/null 2>&1" tool) = 0

let read_log path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let k = min n 800 in
    seek_in ic (n - k);
    let s = really_input_string ic k in
    close_in ic;
    String.trim s
  with _ -> ""

let write_atomic ~dir ~dst content =
  let tmp = Filename.temp_file ~temp_dir:dir "msc_src" ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp dst

(* {2 Emission} *)

(* A form the emitter cannot express; distinguished from toolchain
   failures in [stats]. *)
exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* The stub unpacks srcs/aux/lo/hi into fixed C buffers of this size. *)
let max_aux = 64

(* Hex float literals round-trip exactly in C99; always parenthesized so
   a leading minus never fuses with the surrounding expression. *)
let flit f = Printf.sprintf "(%h)" f

let flit_checked f =
  if Float.is_finite f then flit f
  else unsupported "non-finite constant has no exact literal"

let idx d =
  if d = 0 then "i"
  else if d > 0 then Printf.sprintf "i + %d" d
  else Printf.sprintf "i - %d" (-d)

let flat_delta strides offsets =
  let acc = ref 0 in
  Array.iteri (fun d o -> acc := !acc + (o * strides.(d))) offsets;
  !acc

(* {3 Product chains}

   The one lowering besides the whole tree. A kernel whose expression is a
   left-associated [+]/[-] chain of products lowers to that chain, summed
   left to right exactly as the tree is; every other kernel renders as one
   whole tree expression. A product is one of [c*x], [x*c], [x], [-t],
   [(c*a)*x] or [a*x], where [x] and [a] are reads of any grid and [c] is
   a finite constant subtree folded with [Expr.eval]'s arithmetic. Each
   renders as [c * r0] or [c * r0 * r1], which C evaluates bit-identically to the
   tree: multiplication commutes, and negation and subtraction are exact
   sign flips ([x - t = x + (-t)], [-(c*x) = (-c)*x], [-x = (-1)*x]).
   Nothing else is accepted, so [c*(a+b)], [x/c] or [c1*(c2*x)] stay
   trees, and duplicate offsets stay separate products. *)

type product = { coeff : float option; reads : Expr.access list }

let chain_products (k : Kernel.t) =
  let constant e =
    match Expr.constant ~bindings:k.Kernel.bindings e with
    | Some c when Float.is_finite c -> Some c
    | _ -> None
  in
  let negate p =
    { p with coeff = Some (match p.coeff with Some c -> -.c | None -> -1.0) }
  in
  let with_coeff c reads = Option.map (fun c -> { coeff = Some c; reads }) (constant c) in
  let rec product (e : Expr.t) =
    match e with
    | Unop (Neg, t) -> Option.map negate (product t)
    | Access x -> Some { coeff = None; reads = [ x ] }
    | Binop (Mul, Access a, Access x) -> Some { coeff = None; reads = [ a; x ] }
    | Binop (Mul, Binop (Mul, c, Access a), Access x) -> with_coeff c [ a; x ]
    | Binop (Mul, c, Access x) | Binop (Mul, Access x, c) -> with_coeff c [ x ]
    | _ -> None
  in
  let rec chain acc (e : Expr.t) =
    match (product e, e) with
    | Some p, _ -> Some (p :: acc)
    | None, Binop (Add, l, r) -> Option.bind (product r) (fun p -> chain (p :: acc) l)
    | None, Binop (Sub, l, r) ->
        Option.bind (product r) (fun p -> chain (negate p :: acc) l)
    | None, _ -> None
  in
  Option.map Array.of_list (chain [] k.Kernel.expr)

let chain_length k = Option.map Array.length (chain_products k)

(* {3 Tree expressions}

   Renders Expr.eval's exact operation set. [coord d] renders the interior
   coordinate of dimension [d] at the current point (the interpreter's
   [Var] value); the flat point index in scope is [i], which already
   includes the halo offsets — an access only adds its constant flat
   delta. *)

let c_tree ~arr ~coord ~strides (k : Kernel.t) =
  let var_coord name =
    let rec find d = function
      | [] -> unsupported "unknown loop var %s" name
      | v :: rest -> if String.equal v name then coord d else find (d + 1) rest
    in
    find 0 k.Kernel.index_vars
  in
  let rec go (e : Expr.t) =
    match e with
    | Expr.Fconst x -> flit_checked x
    | Iconst n -> flit (float_of_int n)
    | Param name -> (
        match List.assoc_opt name k.Kernel.bindings with
        | Some v -> flit_checked v
        | None -> unsupported "unbound parameter %s" name)
    | Var name -> Printf.sprintf "((double)%s)" (var_coord name)
    | Access a ->
        Printf.sprintf "(%s[%s])" (arr a.Expr.tensor)
          (idx (flat_delta strides a.Expr.offsets))
    | Unop (op, a) -> (
        match op with
        | Expr.Neg -> Printf.sprintf "(- %s)" (go a)
        | Abs -> Printf.sprintf "(fabs(%s))" (go a)
        | Sqrt -> Printf.sprintf "(sqrt(%s))" (go a)
        | Exp -> Printf.sprintf "(exp(%s))" (go a)
        | Sin -> Printf.sprintf "(sin(%s))" (go a)
        | Cos -> Printf.sprintf "(cos(%s))" (go a))
    | Binop (op, a, b) -> (
        match op with
        | Expr.Add -> Printf.sprintf "(%s + %s)" (go a) (go b)
        | Sub -> Printf.sprintf "(%s - %s)" (go a) (go b)
        | Mul -> Printf.sprintf "(%s * %s)" (go a) (go b)
        | Div -> Printf.sprintf "(%s / %s)" (go a) (go b)
        | Min -> Printf.sprintf "(msc_min(%s, %s))" (go a) (go b)
        | Max -> Printf.sprintf "(msc_max(%s, %s))" (go a) (go b))
    | Call (name, args) -> (
        match (name, List.map go args) with
        | "pow", [ a; b ] -> Printf.sprintf "(pow(%s, %s))" a b
        | "hypot", [ a; b ] -> Printf.sprintf "(hypot(%s, %s))" a b
        | "fma", [ a; b; c ] -> Printf.sprintf "(fma(%s, %s, %s))" a b c
        | (("sqrt" | "exp" | "log" | "sin" | "cos" | "tanh") as f), [ a ] ->
            Printf.sprintf "(%s(%s))" f a
        | "fabs", [ a ] -> Printf.sprintf "(fabs(%s))" a
        | _ -> unsupported "unknown call %s/%d" name (List.length args))
  in
  go k.Kernel.expr

(* Exact ports of OCaml's Float.min / Float.max: fmin/fmax differ on NaN
   propagation and signed zeros, so the C side re-implements the stdlib
   definitions verbatim. *)
let c_tree_prelude =
  "#include <math.h>\n\n\
   static inline double msc_min(double x, double y)\n\
   {\n\
  \  if (y > x || (!signbit(y) && signbit(x))) return (y != y) ? y : x;\n\
  \  return (x != x) ? x : y;\n\
   }\n\
   static inline double msc_max(double x, double y)\n\
   {\n\
  \  if (y > x || (!signbit(y) && signbit(x))) return (x != x) ? x : y;\n\
  \  return (y != y) ? y : x;\n\
   }\n\n"

(* The flat row base for outer coordinates [i0..] and last-dim start
   [l<last>], with halo offsets and strides folded to literals. *)
let base_expr ~nd ~halo ~strides =
  let last = nd - 1 in
  String.concat " + "
    (List.init nd (fun d ->
         let coord =
           if d = last then Printf.sprintf "l%d" d else Printf.sprintf "i%d" d
         in
         let shifted =
           if halo.(d) = 0 then coord
           else Printf.sprintf "(%s + %d)" coord halo.(d)
         in
         if strides.(d) = 1 then shifted
         else Printf.sprintf "%s * %d" shifted strides.(d)))

(* {2 Fused whole-sweep emission}

   One write-through function per plan covering every stencil term: the
   first term seeds a per-point accumulator, later terms fold into it, and
   [dst] is written once — replacing the interpreter's one full-grid pass
   per term. The loop shapes are described at the fold units below;
   nothing reassociates, so bit-identity is preserved. *)

(* Per-term (slot offset, aux names) in the concatenated aux layout of
   [Backend.sweep_aux_slots]: one slot per distinct aux tensor a term
   reads, in first-use order. *)
let sweep_slots terms =
  let off = ref 0 in
  let layout =
    List.map
      (fun term ->
        let names = Backend.sweep_aux_slots [ term ] in
        let o = !off in
        off := o + List.length names;
        (o, names))
      terms
  in
  (layout, !off)

(* The shared (shape, halo, strides) of the kernel terms. *)
let sweep_geometry terms =
  let geoms =
    List.filter_map
      (function
        | Backend.Sweep_kernel { kernel; halo; _ } -> Some (kernel.Kernel.input.Tensor.shape, halo)
        | Backend.Sweep_state _ -> None)
      terms
  in
  match geoms with
  | [] -> Error "fused sweep needs at least one kernel term"
  | ((shape, halo) as g0) :: rest ->
      if Array.length halo <> Array.length shape then Error "halo rank differs from kernel rank"
      else if List.for_all (( = ) g0) rest then Ok (shape, halo, Grid.strides_of ~shape ~halo)
      else Error "kernel terms disagree on grid geometry"

let sweep_has_tree terms =
  List.exists
    (function
      | Backend.Sweep_kernel { kernel; _ } -> chain_products kernel = None
      | Backend.Sweep_state _ -> false)
    terms

(* The aux slot (in the concatenated layout) of aux tensor [n] of term
   [t]. *)
let aux_slot ~layout t n =
  let off, names = List.nth layout t in
  let rec go j = function
    | [] -> unsupported "aux tensor %s has no fused slot" n
    | m :: rest -> if String.equal m n then off + j else go (j + 1) rest
  in
  go 0 names

(* {3 Fold units and passes}

   Per point, a fused sweep performs one chain of operations. A chain
   term sums its products left to right into a partial [p], and a
   finished term folds into the accumulator: the first term seeds it
   (unscaled when its scale is 1.0), later terms add [scale * term]. A
   {e fold unit} is one step of that chain: one product of a chain term,
   or one whole tree or State term.

   Every sweep runs as table-driven passes (below). A sweep of at most
   [single_pass_units] units is one pass; a longer one is cut into passes
   of at most [pass_units] units. Unrolling all of 2d169pt_box's 338
   units into one 2-D pass made 135 KB of C that took gcc ~24 s and swept
   at about half the rate of the cut passes.

   On a 2-D grid a single pass renders its units for [row_lanes] rows
   ([Row_block]), then a 1-row tail, and one call covers a task's rows at
   their full width: each column iteration runs four independent
   accumulator chains while the column loop stays contiguous and
   auto-vectorizable (a manual column unroll defeats vectorization and
   measured ~2x slower). On a 2-vCPU x86 host, running those passes one
   row at a time made 2d9pt_box steps 1.3-1.45x slower at 2048^2 and
   tree-form pipeline steps up to 1.5x slower. Every other pass
   ([Passes]) walks one row per iteration over strips of at most
   [strip_cols] points: one strip of a long row, or as many whole short
   rows as fit, so each call's table reads and row pointers serve enough
   points and the stack rows the passes of a long sweep share stay in
   L1. A long sweep's passes already have up to 16 independent products
   each, and a 3-D single pass loses to lanes: a 4-row block of
   3d7pt_star reads 28 source rows and writes 4 destination rows per
   column step, against 10 and 1 without it, and out of cache (256^3) it
   took 41 ms a step against 26 ms.

   Passes of the same shape share one non-inlined C function, so the
   statements a long sweep unrolls are bounded by its distinct shapes
   rather than growing with stencil order. On a 2-vCPU Cooper Lake host
   (gcc 12, -O3 -march=native), emitting every product of every pass as
   its own literal statement in one function took gcc a median 1.7 s on
   2d169pt_box at 256^2 (338 statements) and 3.6 s on the four pass-form
   suite kernels together. With shared bodies 2d169pt_box unrolls 65
   statements in 5 functions and compiles in a median 0.30 s, about 2x a
   3d7pt_star sweep, and the four kernels in 1.15 s. Two other table
   layouts lost there: one read pointer per unit from an offset table ran
   8-15% behind the literal passes (the pointers spill and are re-derived
   for every row), and letting gcc clone a body per call site compiled
   almost as slowly as the literal passes. *)

let single_pass_units = 32
let pass_units = 16
let strip_cols = 512
let row_lanes = 4

(* The loop nest of a sweep of [n] fold units on an [nd]-D grid. *)
type nest = Row_block | Passes

let sweep_nest ~nd n = if n <= single_pass_units && nd = 2 then Row_block else Passes
let nest_name = function Row_block -> "row_block" | Passes -> "passes"

let term_units = function
  | Backend.Sweep_state _ -> 1
  | Backend.Sweep_kernel { kernel; _ } -> Option.value ~default:1 (chain_length kernel)

let term_scale = function
  | Backend.Sweep_state { scale } | Backend.Sweep_kernel { scale; _ } -> scale

(* (term, unit within the term) of every fold unit, in chain order. *)
let sweep_units terms =
  Array.of_list
    (List.concat
       (List.mapi
          (fun t term -> List.init (term_units term) (fun k -> (t, k)))
          terms))

(* Where the passes of a long sweep start, then its end. A run of
   consecutive single-read products of one term that read one row (the
   same array, and the same offsets but the innermost) stays in one pass:
   then the passes over the rows of a box stencil, and the matching passes
   of terms with the same taps, read at the same distances from their
   row pointers and share a body. Runs pack greedily into passes of at
   most [pass_units] units, and a longer run is cut evenly; a term longer
   than one pass starts a pass of its own, so its cuts fall where those
   of an earlier term with the same taps did. 2d169pt_box then runs 26
   passes where even cuts of 16 run 22, and still sweeps faster. *)
let pass_cuts ~chains units =
  let n = Array.length units in
  let row u =
    let t, k = units.(u) in
    match chains.(t) with
    | Some products -> (
        match products.(k).reads with
        | [ x ] ->
            let o = x.Expr.offsets in
            Some (t, x.Expr.tensor, Array.sub o 0 (Array.length o - 1))
        | _ -> None)
    | None -> None
  in
  let cuts = ref [] and fill = ref 0 in
  let place start len =
    let t, k = units.(start) in
    let long_term = match chains.(t) with Some p -> Array.length p > pass_units | None -> false in
    if k = 0 && long_term && !fill > 0 then fill := pass_units;
    if len > pass_units then begin
      if start > 0 then cuts := start :: !cuts;
      let k = (len + pass_units - 1) / pass_units in
      for j = 1 to k - 1 do
        cuts := (start + (j * len / k)) :: !cuts
      done;
      fill := pass_units
    end
    else if !fill + len <= pass_units then fill := !fill + len
    else begin
      cuts := start :: !cuts;
      fill := len
    end
  in
  let start = ref 0 in
  for u = 1 to n do
    if u = n || row u = None || row u <> row (u - 1) then begin
      place !start (u - !start);
      start := u
    end
  done;
  (0 :: List.rev !cuts) @ [ n ]

(* The right-hand side folding the finished value [v] of term [t] into
   [acc]; [k ()] renders the scale. *)
let fold_rhs ~t ~scale ~k v =
  if t > 0 then Printf.sprintf "acc + (%s * %s)" (k ()) v
  else if scale = 1.0 then v
  else Printf.sprintf "%s * %s" (k ()) v

(* {3 Table-driven passes}

   A pass over fold units [a, b) is one function:

   {v
   static __attribute__((noinline, noclone)) void <name>(
       const double *const *restrict arr, double *restrict dst,
       double *restrict msc_acc, double *restrict msc_part, long ic, long nr,
       long cn, const long *restrict anc, const double *restrict cf
       [, const long *restrict crd])
   v}

   [arr] holds the sweep's source arrays then its aux slots; a call
   covers [nr] rows of [cn] columns from flat index [ic], parked row after
   row in the stack rows [msc_acc] and [msc_part] (null for a single
   pass, which parks nothing). The first read of each array the pass
   touches anchors a row pointer [q_j = arr[anc[2j]] + ic + anc[2j + 1]]
   (the array's slot, then the read's flat offset), and every read of
   that array is [q_j] at a literal distance from the anchor, so a loop
   keeps one pointer per array and the reads are immediate
   displacements. The k-th coefficient or fold scale is [cf[k]]. Each
   call passes its own slices of the sweep's two tables, and [noclone]
   keeps gcc from compiling one copy of a shared body per call. A pass
   that starts inside a term resumes [p] from [msc_part]; one that folds
   a term into a live accumulator loads [acc] from [msc_acc]; one that
   ends inside a term parks [p], one that folded a term parks [acc], and
   the last pass writes [dst].

   A pass with [lanes] row lanes renders its units once per lane, lane
   [k] reading [k * row_stride] further from the same anchors, and then
   once more for the 1-row tail. Products and State terms are
   table-driven; a tree term renders whole into its pass, so a pass
   holding one has a body of its own. Its reads go through arrays
   hoisted out of [arr] into locals, at [i = icol + k * row_stride] from
   one column index [icol] per column iteration, and its loop
   coordinates come from [crd] (the outer coordinates, then the first
   column), its row coordinate being [crd + r + k]. Deriving every
   lane's index from the one [icol] matters: in an earlier emitter whose
   lanes each recomputed their index from scratch, gcc's CSE drowned in
   the wide-radius tap expressions (7x compile time and ~4x slower code
   on 2d169pt_box). *)

type pass = {
  body : string;  (** everything after the function name *)
  statements : int;  (** fold-unit statements, across lanes and tail *)
  anc : int list;
  cf : string list;  (** rendered literals *)
}

let pass_signature ~has_tree =
  Printf.sprintf
    "(const double *const *restrict arr, double *restrict dst,\n\
    \    double *restrict msc_acc, double *restrict msc_part, long ic, long nr,\n\
    \    long cn, const long *restrict anc, const double *restrict cf%s)"
    (if has_tree then ", const long *restrict crd" else "")

let c_pass ~layout ~strides ~terms ~chains ~units ~has_tree ~lanes a b =
  let n = Array.length units in
  let nterms = Array.length terms in
  let last = Array.length strides - 1 in
  let col = if strides.(last) = 1 then "c" else Printf.sprintf "c * %d" strides.(last) in
  let row_stride = if last = 0 then 0 else strides.(last - 1) in
  let plus d =
    if d = 0 then "" else Printf.sprintf " %c %d" (if d > 0 then '+' else '-') (abs d)
  in
  let decl = Buffer.create 512 in
  let cf = ref [] in
  (* (array, (j, flat offset)) of the anchor of row pointer [q_j], latest
     first. *)
  let anchors = ref [] in
  let read ~lane s o =
    let j, anchor =
      match List.assoc_opt s !anchors with
      | Some anchor -> anchor
      | None ->
          let j = List.length !anchors in
          anchors := (s, (j, o)) :: !anchors;
          Printf.bprintf decl "  const double *restrict q%d = arr[anc[%d]] + (ic + anc[%d]);\n"
            j (2 * j) ((2 * j) + 1);
          (j, o)
    in
    Printf.sprintf "q%d[%s%s]" j col (plus (o - anchor + (lane * row_stride)))
  in
  (* Equal constants share one table entry and one register: a box
     stencil's taps mostly share a coefficient. *)
  let coeff f =
    let lit = flit_checked f in
    let j =
      match List.assoc_opt lit (List.mapi (fun j l -> (l, j)) (List.rev !cf)) with
      | Some j -> j
      | None ->
          let j = List.length !cf in
          cf := lit :: !cf;
          Printf.bprintf decl "  const double k%d = cf[%d];\n" j j;
          j
    in
    Printf.sprintf "k%d" j
  in
  let hoisted = ref [] in
  let tree_array s =
    if not (List.mem s !hoisted) then begin
      hoisted := s :: !hoisted;
      Printf.bprintf decl "  const double *restrict t%d = arr[%d];\n" s s
    end;
    Printf.sprintf "t%d" s
  in
  let array_of t (kernel : Kernel.t) name =
    if String.equal name kernel.Kernel.input.Tensor.name then t
    else nterms + aux_slot ~layout t name
  in
  let ends_term u =
    let t, k = units.(u) in
    match chains.(t) with Some p -> k = Array.length p - 1 | None -> true
  in
  let is_tree u =
    let t, _ = units.(u) in
    match (terms.(t), chains.(t)) with Backend.Sweep_kernel _, None -> true | _ -> false
  in
  let range = List.init (b - a) (fun u -> a + u) in
  let folds = List.exists ends_term range and has_tree_unit = List.exists is_tree range in
  let load_acc = folds && fst units.(a) > 0 and resume_p = snd units.(a) > 0 in
  (* The units at row lane [lane], as one C block. *)
  let lane_block lane =
    let buf = Buffer.create 1024 in
    let pr fmt = Printf.bprintf buf fmt in
    let has_acc = ref load_acc and has_p = ref resume_p in
    let set var defined rhs =
      pr "        %s%s = %s;\n" (if !defined then "" else "double ") var rhs;
      defined := true
    in
    pr "      {\n";
    if has_tree_unit then pr "        const long i = icol%s;\n" (plus (lane * row_stride));
    if load_acc then pr "        double acc = msc_acc[j];\n";
    if resume_p then pr "        double p = msc_part[j];\n";
    for u = a to b - 1 do
      let t, k = units.(u) in
      let scale = term_scale terms.(t) in
      let finish v = set "acc" has_acc (fold_rhs ~t ~scale ~k:(fun () -> coeff scale) v) in
      (* [reads]: (array, flat offset) of each read, in product order. *)
      let product coefficient reads =
        let v =
          String.concat " * "
            (Option.to_list (Option.map coeff coefficient)
            @ List.map (fun (s, o) -> read ~lane s o) reads)
        in
        if k = 0 then set "p" has_p v else pr "        p = p + %s;\n" v;
        if ends_term u then finish "p"
      in
      match (terms.(t), chains.(t)) with
      | Backend.Sweep_state _, _ -> product None [ (t, 0) ]
      | Backend.Sweep_kernel { kernel; _ }, Some products ->
          let p = products.(k) in
          product p.coeff
            (List.map
               (fun (x : Expr.access) ->
                 (array_of t kernel x.Expr.tensor, flat_delta strides x.Expr.offsets))
               p.reads)
      | Backend.Sweep_kernel { kernel; _ }, None ->
          let arr name = tree_array (array_of t kernel name) in
          let coord d =
            if d = last then Printf.sprintf "(crd[%d] + c)" d
            else if d = last - 1 then Printf.sprintf "(crd[%d] + r%s)" d (plus lane)
            else Printf.sprintf "crd[%d]" d
          in
          finish ("(" ^ c_tree ~arr ~coord ~strides kernel ^ ")")
    done;
    if b = n then pr "        d[%s%s] = acc;\n" col (plus (lane * row_stride))
    else begin
      if folds then pr "        msc_acc[j] = acc;\n";
      if snd units.(b) > 0 then pr "        msc_part[j] = p;\n"
    end;
    pr "      }\n";
    Buffer.contents buf
  in
  let loop = Buffer.create 1024 in
  let lp fmt = Printf.bprintf loop fmt in
  (* The row loop [head] running [rows] lanes per iteration. *)
  let row_loop head rows =
    lp "  %s {\n" head;
    lp "    for (long c = 0; c < cn; c++) {\n";
    if b < n || load_acc || resume_p then lp "      const long j = r * cn + c;\n";
    if has_tree_unit then lp "      const long icol = ic + r * %d + %s;\n" row_stride col;
    for lane = 0 to rows - 1 do
      Buffer.add_string loop (lane_block lane)
    done;
    lp "    }\n";
    if row_stride <> 0 then begin
      List.iter
        (fun (_, (j, _)) -> lp "    q%d += %d;\n" j (rows * row_stride))
        (List.rev !anchors);
      if b = n then lp "    d += %d;\n" (rows * row_stride)
    end;
    lp "  }\n"
  in
  if lanes > 1 then begin
    lp "  long r = 0;\n";
    row_loop (Printf.sprintf "for (; r + %d < nr; r += %d)" (lanes - 1) lanes) lanes;
    row_loop "for (; r < nr; r++)" 1
  end
  else row_loop "for (long r = 0; r < nr; r++)" 1;
  if b = n then Printf.bprintf decl "  double *restrict d = dst + ic;\n";
  {
    body =
      Printf.sprintf "%s\n{\n%s%s}\n" (pass_signature ~has_tree) (Buffer.contents decl)
        (Buffer.contents loop);
    statements = (b - a) * if lanes > 1 then lanes + 1 else 1;
    anc = List.concat_map (fun (s, (_, o)) -> [ s; o ]) (List.rev !anchors);
    cf = List.rev !cf;
  }

(* A static const table of [items], [per_line] to a line. *)
let c_table ~ty ~name ~per_line items =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "static const %s %s[] = {" ty name;
  List.iteri
    (fun j s ->
      if j mod per_line = 0 then Buffer.add_string buf "\n ";
      Printf.bprintf buf " %s," s)
    (if items = [] then [ "0" ] else items);
  Buffer.add_string buf "\n};\n";
  Buffer.contents buf

(* How a sweep's C is laid out: its loop nest, its distinct pass bodies
   (1 for a single pass) and the fold-unit statements unrolled across
   them, the figure gcc time tracks. *)
type sweep_layout = { nest : string; pass_bodies : int; unit_statements : int }

(* The tables and the distinct bodies of a sweep's passes, as C to place
   before the sweep function; the call of each pass, in order; and the
   number of bodies and of fold-unit statements across them. *)
let emit_passes ~fn_name ~layout ~strides ~terms ~units ~has_tree ~lanes =
  let buf = Buffer.create 8192 in
  let chains =
    Array.map
      (function
        | Backend.Sweep_kernel { kernel; _ } -> chain_products kernel
        | Backend.Sweep_state _ -> None)
      terms
  in
  let n = Array.length units in
  let rec passes = function
    | a :: (b :: _ as rest) ->
        c_pass ~layout ~strides ~terms ~chains ~units ~has_tree ~lanes a b :: passes rest
    | [ _ ] | [] -> []
  in
  let passes = passes (if n > single_pass_units then pass_cuts ~chains units else [ 0; n ]) in
  let all f = List.concat_map f passes in
  Buffer.add_string buf
    (c_table ~ty:"long" ~name:(fn_name ^ "_anc") ~per_line:10
       (all (fun p -> List.map string_of_int p.anc)));
  Buffer.add_string buf
    (c_table ~ty:"double" ~name:(fn_name ^ "_cf") ~per_line:4 (all (fun p -> p.cf)));
  let bodies = ref [] and statements = ref 0 in
  let name_of p =
    match List.assoc_opt p.body !bodies with
    | Some name -> name
    | None ->
        let name = Printf.sprintf "%s_pass%d" fn_name (List.length !bodies) in
        bodies := (p.body, name) :: !bodies;
        statements := !statements + p.statements;
        Printf.bprintf buf "static __attribute__((noinline, noclone)) void %s%s" name p.body;
        name
  in
  let stack = if List.length passes > 1 then "msc_acc, msc_part" else "0, 0" in
  let a = ref 0 and c = ref 0 in
  let calls =
    List.map
      (fun p ->
        let call =
          Printf.sprintf "%s(msc_arr, dst, %s, ic, nr, cn, %s_anc + %d, %s_cf + %d%s);"
            (name_of p) stack fn_name !a fn_name !c
            (if has_tree then ", msc_crd" else "")
        in
        a := !a + List.length p.anc;
        c := !c + List.length p.cf;
        call)
      passes
  in
  (Buffer.contents buf, calls, List.length !bodies, !statements)

let emit_sweep ~fn_name ~halo ~strides terms =
  let nd = Array.length strides in
  let last = nd - 1 in
  let layout, nslots = sweep_slots terms in
  let nterms = List.length terms in
  let units = sweep_units terms in
  let nest = sweep_nest ~nd (Array.length units) in
  let has_tree = sweep_has_tree terms in
  let buf = Buffer.create 8192 in
  let pr fmt = Printf.bprintf buf fmt in
  pr "/* Fused sweep %s -- generated by Msc_exec.Jit; do not edit. */\n" fn_name;
  if has_tree then pr "%s" c_tree_prelude;
  let decls, calls, pass_bodies, unit_statements =
    emit_passes ~fn_name ~layout ~strides ~terms:(Array.of_list terms) ~units ~has_tree
      ~lanes:(if nest = Row_block then row_lanes else 1)
  in
  pr "%s" decls;
  pr "void %s(const double **srcs, double *restrict dst,\n" fn_name;
  pr "%s const double **aux, const long *restrict lo,\n"
    (String.make (String.length fn_name + 5) ' ');
  pr "%s const long *restrict hi)\n" (String.make (String.length fn_name + 5) ' ');
  pr "{\n";
  if nslots = 0 then pr "  (void)aux;\n";
  for d = 0 to last do
    pr "  long l%d = lo[%d]; long h%d = hi[%d];\n" d d d d
  done;
  pr "  long len = h%d - l%d;\n" last last;
  pr "  if (len <= 0) return;\n";
  pr "  const double *const msc_arr[%d] = { %s };\n" (nterms + nslots)
    (String.concat ", "
       (List.init nterms (Printf.sprintf "srcs[%d]")
       @ List.init nslots (Printf.sprintf "aux[%d]")));
  if List.length calls > 1 then
    pr "  double msc_acc[%d], msc_part[%d];\n" strip_cols strip_cols;
  (* Every pass over [nr] rows of [cn] columns from column [cs] of the
     row at [base]. *)
  let call () =
    pr "    const long ic = base + %s;\n"
      (if strides.(last) = 1 then "cs" else Printf.sprintf "cs * %d" strides.(last));
    if has_tree then
      pr "    const long msc_crd[%d] = { %s };\n" nd
        (String.concat ", "
           (List.init nd (fun d ->
                if d = last then Printf.sprintf "l%d + cs" d else Printf.sprintf "i%d" d)));
    List.iter (pr "    %s\n") calls
  in
  let strips () =
    pr "  long base = %s;\n" (base_expr ~nd ~halo ~strides);
    pr "  for (long cs = 0; cs < len; cs += %d) {\n" strip_cols;
    pr "    const long cn = len - cs < %d ? len - cs : %d;\n" strip_cols strip_cols;
    call ();
    pr "  }\n"
  in
  (match nest with
  | Row_block ->
      pr "  const long i0 = l0, nr = h0 - l0, cs = 0, cn = len;\n";
      pr "  long base = %s;\n" (base_expr ~nd ~halo ~strides);
      call ()
  | Passes when nd = 1 ->
      pr "  const long nr = 1;\n";
      strips ()
  | Passes ->
      let r = last - 1 in
      pr "  const long msc_rows = len < %d ? %d / len : 1;\n" strip_cols strip_cols;
      for d = 0 to r - 1 do
        pr "  for (long i%d = l%d; i%d < h%d; i%d++) {\n" d d d d d
      done;
      pr "  for (long i%d = l%d; i%d < h%d; i%d += msc_rows) {\n" r r r r r;
      pr "  const long nr = h%d - i%d < msc_rows ? h%d - i%d : msc_rows;\n" r r r r;
      strips ();
      for _ = 0 to r do
        pr "  }\n"
      done);
  pr "}\n";
  (Buffer.contents buf, { nest = nest_name nest; pass_bodies; unit_statements })

(* {2 Build + load} *)

let c_tool () =
  if have_tool "cc" then Ok "cc"
  else if have_tool "gcc" then Ok "gcc"
  else Error "no C compiler (cc/gcc) found on PATH"

let c_cmd ~tc ~dir ~src ~out ~log =
  (* -ffp-contract=off: contraction would fuse mul+add and change rounding,
     breaking bit-identity with the interpreter. *)
  Printf.sprintf
    "cd %s && %s -O3 -ffp-contract=off -fPIC -shared -o %s %s -lm > %s 2>&1"
    (Filename.quote dir) tc (Filename.quote out) (Filename.quote src)
    (Filename.quote log)

(* Fused sweeps are the hot artifact, and a JIT compiles for the machine it
   runs on: ask for the host microarchitecture first and fall back to the
   portable flags of [c_cmd] when the compiler does not know [-march=native].
   Wider vector codegen does not change per-element rounding, and
   [-ffp-contract=off] still bans the fused multiply-adds that would.
   gcc folds libm calls on constant arguments with its own correctly
   rounded arithmetic, so a tree's [sin] of a constant subtree differed
   from the interpreter's glibc [sin] in the last bit: the libm functions
   a tree may call that glibc does not round correctly stay calls. *)
let c_sweep_cmd ~tc ~dir ~src ~out ~log =
  let flags march =
    Printf.sprintf "%s -O3%s -ffp-contract=off %s -fPIC -shared -o %s %s -lm" tc march
      (String.concat " "
         (List.map (( ^ ) "-fno-builtin-") [ "pow"; "hypot"; "exp"; "log"; "sin"; "cos"; "tanh" ]))
      (Filename.quote out) (Filename.quote src)
  in
  Printf.sprintf "cd %s && { %s > %s 2>&1 || %s > %s 2>&1; }"
    (Filename.quote dir)
    (flags " -march=native")
    (Filename.quote log) (flags "") (Filename.quote log)

(* {2 Background builds}

   A build runs in two steps. [start], under the lock, serves the memo or
   an artifact already on disk, or emits the source and queues the
   toolchain's shell line as a child process; [await] waits for that
   child, installs its output atomically and loads it. The lock is free
   between the two, so a caller can do independent work (a runtime
   allocates and fills its grids) while the compiler runs, and one
   domain's compile no longer serialises another's lookups. At most
   [max_compilers] children run at once; the others wait in [queue] and
   are launched in order as children are reaped, by an [await] or by a
   non-blocking [poll] the caller makes between chunks of its own work.
   An artifact on disk that does not load (truncated, or built for
   another ABI) is removed and rebuilt once, so one bad file cannot
   degrade a kernel in every later process. *)

(* One toolchain child: [Queued] until a slot frees, [Running] until an
   [await] or a [poll] reaps it. [reaping] marks the one caller inside
   [waitpid], so each pid is waited for exactly once. *)
type proc_state = Queued | Running of int | Exited of int

type proc = {
  cmd : string;
  ptrace : Msc_trace.t;  (* the starter's; gets the ["jit.compile"] span *)
  mutable state : proc_state;
  mutable reaping : bool;
  mutable launched_at : float;
}

(* One core stays free for the domain that started the compiles. *)
let max_compilers = max 1 (Domain.recommended_domain_count () - 1)
let queue : proc Queue.t = Queue.create ()
let running : proc list ref = ref []
let reaped = Condition.create ()

(* [launch] through [wait_exit] run under the lock. A child that cannot
   be spawned counts as one that failed. *)
let launch p =
  p.launched_at <- Msc_trace.begin_span p.ptrace;
  match
    Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; p.cmd |] Unix.stdin Unix.stdout
      Unix.stderr
  with
  | pid ->
      p.state <- Running pid;
      running := p :: !running
  | exception Unix.Unix_error _ -> p.state <- Exited 127

let launch_queued () =
  while List.length !running < max_compilers && not (Queue.is_empty queue) do
    launch (Queue.pop queue)
  done

let status_code = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 128

(* A reaped child frees its slot for the next queued one. The
   ["jit.compile"] span covers the child's whole wall time, hidden or
   not, up to the reap. *)
let exited p code =
  p.state <- Exited code;
  running := List.filter (fun q -> q != p) !running;
  Msc_trace.end_span p.ptrace "jit.compile" p.launched_at;
  launch_queued ();
  Condition.broadcast reaped

let rec exit_code pid =
  match Unix.waitpid [] pid with
  | _, status -> status_code status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> exit_code pid
  | exception Unix.Unix_error _ -> 127

(* The lock is released while the child runs. *)
let reap p pid =
  p.reaping <- true;
  Mutex.unlock lock;
  let code = exit_code pid in
  Mutex.lock lock;
  p.reaping <- false;
  exited p code

(* Block until [p] has exited. While it waits for a slot, reap the
   oldest running child no other caller is reaping, whoever started it. *)
let rec wait_exit p =
  match p.state with
  | Exited code -> code
  | Running pid when not p.reaping ->
      reap p pid;
      wait_exit p
  | Running _ ->
      Condition.wait reaped lock;
      wait_exit p
  | Queued ->
      launch_queued ();
      (if p.state = Queued then
         match List.rev (List.filter (fun q -> not q.reaping) !running) with
         | ({ state = Running pid; _ } as q) :: _ -> reap q pid
         | _ -> Condition.wait reaped lock);
      wait_exit p

let poll () =
  with_lock (fun () ->
      List.iter
        (fun p ->
          match p.state with
          | Running pid when not p.reaping -> (
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> ()
              | _, status -> exited p (status_code status)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | exception Unix.Unix_error _ -> exited p 127)
          | Queued | Running _ | Exited _ -> ())
        !running)

(* An artifact being built: its child, and what installing and loading
   the child's output takes. The first [await] sets [result]. *)
type 'a build = {
  proc : proc;
  cache : 'a cache;
  key : string;
  tool : string;
  tmp : string;  (* the child's output, renamed to [art] on success *)
  art : string;
  log : string;
  load : string -> ('a, string) result;
  mutable result : ('a, string) result option;
}

(* Loaded kernels, and the builds of this process not awaited yet: a key
   is in at most one of the two, so a key compiles once per process. *)
and 'a cache = { memo : (string, 'a) Hashtbl.t; in_flight : (string, 'a build) Hashtbl.t }

type 'a job = Ready of ('a, string) result | Building of Msc_trace.t * 'a build

let new_cache () = { memo = Hashtbl.create 16; in_flight = Hashtbl.create 4 }
let sweep_cache : Backend.sweep_fn cache = new_cache ()
let reduce_cache : Backend.reduce_fn cache = new_cache ()

let clear_memo () =
  with_lock (fun () ->
      Hashtbl.reset sweep_cache.memo;
      Hashtbl.reset reduce_cache.memo)

(* Classify a build outcome into the two failure counters: [Unsupported]
   is a form the emitter cannot express; everything else (missing
   toolchain, compile error, load error) is a toolchain failure. Under
   the lock. *)
let classified f =
  match f () with
  | Ok _ as ok -> ok
  | Error _ as e ->
      incr failures_toolchain;
      e
  | exception Unsupported msg ->
      incr failures_unsupported;
      Error msg
  | exception e ->
      incr failures_toolchain;
      Error (Printexc.to_string e)

(* The memo-then-in-flight-then-disk-then-build lookup every compile
   entry point shares, inside one ["jit.lookup"] span. Joining a build
   already in flight counts as a memo hit. [check] and [emit] may raise
   [Unsupported]; [wrap] turns the resolved entry point [sym] into the
   OCaml-side function. *)
let start ~trace c ~key ~cmd ~sym ~check ~emit wrap =
  let load art =
    try Ok (wrap (dlopen_sym art sym)) with Failure m -> Error ("dlopen: " ^ m)
  in
  Msc_trace.span trace "jit.lookup" (fun () ->
      with_lock (fun () ->
          match (Hashtbl.find_opt c.memo key, Hashtbl.find_opt c.in_flight key) with
          | Some fn, _ ->
              incr memo_hits;
              Ready (Ok fn)
          | None, Some b ->
              incr memo_hits;
              Building (trace, b)
          | None, None ->
              let dir = cache_dir () in
              (try mkdir_p dir with _ -> ());
              let art = Filename.concat dir (key ^ ".so") in
              let build () =
                match c_tool () with
                | Error _ as e -> e
                | Ok tool ->
                    let src = key ^ ".c" and log = key ^ ".log" in
                    write_atomic ~dir ~dst:(Filename.concat dir src) (emit ());
                    let tmp = Filename.temp_file ~temp_dir:dir key ".so" in
                    let proc =
                      {
                        cmd = cmd ~tc:tool ~dir ~src ~out:(Filename.basename tmp) ~log;
                        ptrace = trace;
                        state = Queued;
                        reaping = false;
                        launched_at = 0.0;
                      }
                    in
                    Queue.push proc queue;
                    launch_queued ();
                    let b =
                      {
                        proc;
                        cache = c;
                        key;
                        tool;
                        tmp;
                        art;
                        log = Filename.concat dir log;
                        load;
                        result = None;
                      }
                    in
                    Hashtbl.replace c.in_flight key b;
                    Ok (Building (trace, b))
              in
              let started =
                classified (fun () ->
                    check ();
                    if not (Sys.file_exists art) then build ()
                    else
                      match load art with
                      | Ok fn ->
                          incr disk_hits;
                          Hashtbl.replace c.memo key fn;
                          Ok (Ready (Ok fn))
                      | Error _ ->
                          (try Sys.remove art with Sys_error _ -> ());
                          build ())
              in
              match started with Ok job -> job | Error _ as e -> Ready e))

(* Under the lock, once the child has exited. *)
let install b code =
  let r =
    classified (fun () ->
        if code <> 0 then begin
          (try Sys.remove b.tmp with Sys_error _ -> ());
          Error (b.tool ^ " failed: " ^ read_log b.log)
        end
        else begin
          Sys.rename b.tmp b.art;
          incr compiles;
          b.load b.art
        end)
  in
  Hashtbl.remove b.cache.in_flight b.key;
  Result.iter (Hashtbl.replace b.cache.memo b.key) r;
  b.result <- Some r;
  r

let await = function
  | Ready r -> r
  | Building (trace, b) ->
      Msc_trace.span trace "jit.await" (fun () ->
          with_lock (fun () ->
              let code = wait_exit b.proc in
              match b.result with Some r -> r | None -> install b code))

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* Rejects, before any compiler runs, what the emitter cannot express:
   term and slot counts past the stub's buffers, and tree constructs the
   renderer rejects (non-finite constants, unbound parameters, unknown
   calls or loop variables). Chains are valid by construction. *)
let check_sweep terms =
  let nterms = List.length terms in
  if nterms = 0 then unsupported "empty sweep";
  if nterms > max_aux then
    unsupported "too many terms for the C calling convention";
  let _, nslots = sweep_slots terms in
  if nslots > max_aux then
    unsupported "too many aux slots for the C calling convention";
  List.iter
    (function
      | Backend.Sweep_kernel { kernel; halo; _ } when chain_products kernel = None ->
          let strides = Grid.strides_of ~shape:kernel.Kernel.input.Tensor.shape ~halo in
          ignore (c_tree ~arr:Fun.id ~coord:string_of_int ~strides kernel)
      | Backend.Sweep_kernel _ | Backend.Sweep_state _ -> ())
    terms

(* Everything a term bakes into the generated code besides the geometry. *)
let sweep_sig = function
  | Backend.Sweep_state { scale } -> `State scale
  | Backend.Sweep_kernel { scale; kernel = k; halo = _ } ->
      `Kernel
        (scale, k.Kernel.expr, k.Kernel.bindings, k.Kernel.index_vars, k.Kernel.input.Tensor.name)

let start_sweep ?(trace = Msc_trace.disabled) ~plan_digest terms =
  match sweep_geometry terms with
  | Error msg ->
      with_lock (fun () -> incr failures_unsupported);
      Ready (Error msg)
  | Ok (shape, halo, strides) ->
      (* The key digests everything baked into the generated code; the
         plan digest alone is not enough because distributed ranks
         compile per-rank geometries under related plans. *)
      let key =
        digest
          [
            plan_digest;
            emitter_version;
            Marshal.to_string (shape, halo, strides, List.map sweep_sig terms) [];
          ]
      in
      let key = Printf.sprintf "msc_sweep_%s_%s" emitter_version key in
      if Msc_trace.enabled trace then begin
        List.iter
          (function
            | Backend.Sweep_kernel { kernel; _ } ->
                let form = if chain_products kernel = None then "tree" else "chain" in
                Msc_trace.add trace ("jit.form." ^ form) 1.0
            | Backend.Sweep_state _ -> ())
          terms;
        let nest =
          sweep_nest ~nd:(Array.length strides) (Array.length (sweep_units terms))
        in
        Msc_trace.add trace ("jit.nest." ^ nest_name nest) 1.0
      end;
      start ~trace sweep_cache ~key ~cmd:c_sweep_cmd ~sym:"msc_sweep"
        ~check:(fun () -> check_sweep terms)
        ~emit:(fun () -> fst (emit_sweep ~fn_name:"msc_sweep" ~halo ~strides terms))
        (fun fn ?(shifts = [||]) srcs dst aux lo hi -> c_call_sweep fn srcs dst aux shifts lo hi)

let compile_sweep ?trace ~plan_digest terms = await (start_sweep ?trace ~plan_digest terms)

let emit_sweep_checked ~fn_name terms =
  match sweep_geometry terms with
  | Error _ as e -> e
  | Ok (_, halo, strides) -> (
      try
        check_sweep terms;
        Ok (emit_sweep ~fn_name ~halo ~strides terms)
      with Unsupported msg -> Error msg)

let emit_c_sweep ~fn_name terms = Result.map fst (emit_sweep_checked ~fn_name terms)
let sweep_layout terms = Result.map snd (emit_sweep_checked ~fn_name:"msc_sweep" terms)

(* {2 Reduction kernels}

   One artifact per geometry covering all four operators (dispatched on
   the op code). Bit-identity discipline: the accumulator chain is
   strictly sequential in row-major order — the same fold Reduction's
   interpreter reference performs — and the compiler may not reassociate
   it (FP reassociation needs -ffast-math, which we never pass), so
   per-tile partials agree bitwise with the interpreter's. *)

let emit_c_reduce ~base ~halo ~strides =
  let nd = Array.length strides in
  let last = nd - 1 in
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.bprintf buf fmt in
  pr "/* Reduction %s -- generated by Msc_exec.Jit; do not edit. */\n" base;
  pr "#include <math.h>\n\n";
  pr "double msc_reduce(long op, const double *a, const double *b,\n";
  pr "                  const long *lo, const long *hi)\n";
  pr "{\n";
  for d = 0 to last do
    pr "  long l%d = lo[%d]; long h%d = hi[%d];\n" d d d d
  done;
  pr "  long len = h%d - l%d;\n" last last;
  pr "  double acc = 0.0;\n";
  pr "  if (len <= 0) return acc;\n";
  let iexpr =
    if strides.(last) = 1 then "base + c"
    else Printf.sprintf "base + c * %d" strides.(last)
  in
  let nest body =
    for d = 0 to last - 1 do
      pr "  for (long i%d = l%d; i%d < h%d; i%d++) {\n" d d d d d
    done;
    pr "  long base = %s;\n" (base_expr ~nd ~halo ~strides);
    pr "    for (long c = 0; c < len; c++) {\n";
    pr "      long i = %s;\n" iexpr;
    pr "      %s\n" body;
    pr "    }\n";
    for _ = 0 to last - 1 do
      pr "  }\n"
    done
  in
  pr "  if (op == 0) {\n";
  nest "acc = acc + a[i];";
  pr "  } else if (op == 1) {\n";
  nest "acc = acc + (a[i] * b[i]);";
  pr "  } else if (op == 2) {\n";
  nest "{ double v = a[i]; acc = acc + (v * v); }";
  pr "  } else {\n";
  pr "  (void)b;\n";
  nest "{ double v = fabs(a[i]); if (v > acc) acc = v; }";
  pr "  }\n";
  pr "  return acc;\n";
  pr "}\n";
  Buffer.contents buf

let compile_reduce ?(trace = Msc_trace.disabled) (g : Grid.t) =
  let shape = g.Grid.shape and halo = g.Grid.halo and strides = g.Grid.strides in
  let key =
    digest [ "reduce"; emitter_version; Marshal.to_string (shape, halo, strides) [] ]
  in
  let key = Printf.sprintf "msc_reduce_%s_%s" emitter_version key in
  await
    (start ~trace reduce_cache ~key ~cmd:c_cmd ~sym:"msc_reduce" ~check:ignore
       ~emit:(fun () -> emit_c_reduce ~base:key ~halo ~strides)
       (fun fn op a b lo hi out i -> c_call_reduce fn op a b lo hi out i))
