(** Runtime kernel compiler behind the {!Backend.Compiled_c} backend.

    [compile_sweep] emits one {e fused} write-through C kernel for a whole
    sweep: every term of the stencil update folded into a per-point
    accumulator, scales baked in, [dst] written once. It counts fold
    units (one chain product, or one whole tree or State term) and renders
    every sweep as table-driven passes: a sweep of at most 32 units is one
    pass, a longer one is cut into passes of at most 16 units, each
    resuming every point's accumulator and current term partial from
    stack rows. A pass is a non-inlined C function that reads its array
    slots, row anchors, coefficients and fold scales from [static const]
    tables and its other reads at literal distances from the anchors, and
    passes of the same shape share one function, so the C a long sweep
    unrolls, and its gcc time, stop growing with stencil order
    ({!sweep_layout}). On a 2-D grid a single pass runs 4 row lanes (nest
    [row_block]): each column iteration computes four rows, whose reads
    sit a literal row stride further from the same anchors, as four
    independent accumulator chains while the contiguous innermost loop
    stays auto-vectorizable, and a 1-row tail finishes the rows; one call
    covers a task's rows at their full width. Every other pass (nest
    [passes]; on a 3-D grid lanes multiply the rows a column step
    streams) walks one row per iteration over strips of at most 512
    points (whole short rows). The kernel compiles with the host's
    native ISA when the compiler accepts it, and is loaded back as a
    {!Backend.sweep_fn} and dispatched tile-task-at-a-time by {!Runtime}.

    Each kernel term is emitted from its expression tree alone, the same
    tree the interpreter evaluates, in one of two forms. A kernel whose
    expression is a left-associated [+]/[-] chain of simple products
    ({!chain_length}) lowers to that {e product chain}: one fold unit per
    product, duplicate offsets unmerged, nothing re-associated. Every
    other kernel renders as one whole {e tree} expression. Either way the
    C performs the interpreter's operations in the interpreter's order,
    so compiled sweeps agree with it bit-exactly by construction. The
    [.c] file is compiled with [cc -O3 -ffp-contract=off -fPIC -shared]
    and loaded through [dlopen]. Contraction is disabled because fused
    multiply-adds would change the rounding. Trees call the same libm the
    OCaml runtime links, and gcc may not fold those calls on constant
    arguments ([-fno-builtin-sin] and the like: its folding rounds
    correctly, glibc need not). [Float.min]/[Float.max] are ported to C
    by hand ([fmin]/[fmax] differ on NaN and signed zeros). One thing is
    outside the contract: a NaN result is a NaN on both sides, but its
    sign and payload may differ, because gcc treats them as unspecified
    (it rewrites [c * (-x)] as [(-c) * x], and swaps the operands of
    commutative operations where x86 keeps the first of two NaNs).
    [compile_reduce] builds the reduction kernels the same way.

    Artifacts live in a persistent on-disk cache — [$MSC_KERNEL_CACHE] when
    set, else [<tmpdir>/msc-kernels] — keyed by a digest of everything baked
    into the generated code (plan digest, geometry, scales, kernel trees
    and bindings). A process memo table short-circuits repeat compiles;
    artifacts are written with atomic renames so concurrent processes can
    share a cache directory. An artifact on disk that fails to load
    (truncated, or built for another ABI) is removed and rebuilt once.

    A compile runs in two steps, {!start_sweep} and {!await}. The start
    step, under the JIT's lock, looks up the memo, emits the source,
    rejects unsupported forms and serves an artifact already on disk;
    otherwise it launches the compiler's shell line as a child process
    and returns at once. The await step waits for that child, installs its
    output and loads it. Between the two the caller is free to do other
    work: {!Runtime.create} allocates and fills its grids while its
    kernels compile. A build already in flight in this process is joined,
    not started twice (and counts as a memo hit). At most
    {!max_compilers} compiler children run at once; the others queue and
    launch in start order as children are reaped ({!await}, {!poll}).

    Every compile entry point takes an optional [trace]: the start step
    is a ["jit.lookup"] span, a compiler child's whole wall time, from
    launch to the reap that sees it exit, is a ["jit.compile"] span, and the time an await
    actually blocked on its child is a ["jit.await"] span, so a trace
    shows how much compile time was hidden behind other work. Each
    kernel term of a sweep adds one to a [jit.form.chain] or
    [jit.form.tree] counter, and each sweep adds one to the counter of
    its loop nest, [jit.nest.row_block] or [jit.nest.passes]: form and
    nest decide compile time and sweep rate.

    All failure modes return [Error reason]; callers fall back to the
    interpreter. {!stats} separates forms the emitter cannot express
    ([failures_unsupported]: non-finite constants, unknown calls or loop
    variables, term/aux counts past the stub limit) from toolchain
    problems ([failures_toolchain]: no compiler on [PATH], compile or load
    errors). *)

type stats = {
  memo_hits : int;  (** served from the in-process table *)
  disk_hits : int;  (** artifact already on disk, only re-loaded *)
  compiles : int;  (** toolchain actually invoked *)
  failures_unsupported : int;
      (** forms the emitter cannot express (the caller's fallback is
          expected and deterministic) *)
  failures_toolchain : int;
      (** missing toolchain, compile errors, load errors *)
}
(** Process-lifetime counters, cumulative across cache directories. *)

val stats : unit -> stats

val clear_memo : unit -> unit
(** Drop the in-process memo tables (the on-disk cache is untouched), so
    the next compile exercises the disk-hit path. For tests. *)

val cache_dir : unit -> string
(** The directory the next compile will use ([$MSC_KERNEL_CACHE] is
    re-read on every call). *)

val emitter_version : string
(** The emitter-version salt, folded into {e every} artifact cache key
    (fused sweeps, reductions) and embedded in every artifact file name
    ([msc_sweep_<v>_...], [msc_reduce_<v>_...]). Bumped whenever an
    emitter changes the code it generates for the same specs, so a shared
    [$MSC_KERNEL_CACHE] can never serve artifacts of an older code
    shape. *)

(** {1 Fused whole-sweep kernels} *)

val chain_length : Msc_ir.Kernel.t -> int option
(** [Some n] when the kernel lowers to a product chain of [n] products
    (one fold unit each): its expression is a left-associated [+]/[-]
    chain whose every operand is [c*x], [x*c], [x], [-t], [(c*a)*x] or
    [a*x] ([x], [a] grid reads, [c] a finite constant subtree). [None]
    when it compiles as one tree, e.g. [c*(a+b)], [x/c] or [c1*(c2*x)]. *)

type 'a job
(** A kernel build started by {!start_sweep}: already resolved (memo or
    disk hit, or an error found before any compiler ran), or a compiler
    child running in the background. *)

val max_compilers : int
(** Compiler children allowed to run at once: [max 1 (cores - 1)], so the
    domain that started the compiles keeps a core for its own work. *)

val start_sweep :
  ?trace:Msc_trace.t ->
  plan_digest:string ->
  Backend.sweep_term list ->
  Backend.sweep_fn job
(** Start {!compile_sweep}'s build and return without waiting for the
    compiler. Every job must be {!await}ed: only then does its kernel
    reach the memo, and until then its child may stay unreaped. *)

val await : 'a job -> ('a, string) result
(** Wait for a job's compiler child, install and load its artifact. May be
    called more than once and from any domain; later calls return the
    first one's result. *)

val poll : unit -> unit
(** Reap the compiler children that have exited and launch queued ones in
    their place, without blocking. A caller with long work between
    {!start_sweep} and {!await} ({!Runtime.create} filling its grids)
    calls it now and then, so a compile queued behind another starts as
    soon as a slot frees and each ["jit.compile"] span ends close to its
    child's exit. *)

val compile_sweep :
  ?trace:Msc_trace.t ->
  plan_digest:string ->
  Backend.sweep_term list ->
  (Backend.sweep_fn, string) result
(** Emit + compile + load one fused kernel covering the whole term list,
    in stencil term order, under the {!Backend.sweep_fn} contract: the
    same arguments, per-point fold and bits as {!Interp.compile_sweep}
    over the same terms. All kernel terms must share a geometry; at least
    one kernel term is required (a State-only stage has nothing to
    compile and runs {!Interp.compile_sweep}). The returned function
    performs no validation. [compile_sweep] is [await (start_sweep ...)]. *)

val emit_c_sweep :
  fn_name:string -> Backend.sweep_term list -> (string, string) result
(** The fused C function body alone (no compilation), for the AOT
    {!Codegen} driver: the same emitter the [Compiled_c] backend JITs, so
    standalone generated programs share the fused sweep code path. A long
    sweep's pass tables and functions precede it, named after
    [fn_name]. *)

type sweep_layout = {
  nest : string;
      (** ["row_block"] for a 2-D single pass, which runs 4 row lanes and a
          1-row tail; ["passes"] for every other sweep, whose passes walk
          one row per iteration *)
  pass_bodies : int;  (** distinct pass functions; 1 for a single pass *)
  unit_statements : int;
      (** fold-unit statements unrolled in the C, summed over the distinct
          bodies (a [row_block] pass counts its 4 lanes and its 1-row
          tail): the figure gcc time tracks *)
}

val sweep_layout : Backend.sweep_term list -> (sweep_layout, string) result
(** How {!emit_c_sweep} lays out the C of a term list, without compiling
    it. *)

(** {1 Reduction kernels} *)

val compile_reduce :
  ?trace:Msc_trace.t ->
  Grid.t ->
  (Backend.reduce_fn, string) result
(** Emit + compile + load one reduction kernel for the grid's geometry
    (shape, halo, strides; its data is not read),
    covering all four {!Msc_ir.Reduce} operators (dispatched on
    {!Msc_ir.Reduce.code}). The accumulator chain is strictly sequential
    row-major — bit-identical to the interpreter reference in
    {!Reduction} — and the artifact is keyed by geometry alone, so every
    plan over the same grid shares it. The returned function performs no
    validation; callers guard geometry and range like the sweep paths. *)
