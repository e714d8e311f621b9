(** AOT backend driver: target dispatch, file bundles, and a host toolchain
    harness that compiles and runs generated CPU/OpenMP code for end-to-end
    validation. *)

type target =
  | Cpu  (** portable serial C *)
  | Openmp  (** Matrix MT2000+ / commodity CPU *)
  | Athread  (** Sunway SW26010 master + slave pair *)

type file = { name : string; contents : string }

val target_of_string : string -> (target, string) result
val target_to_string : target -> string

val machine_of_target : target -> Msc_machine.Machine.t
(** The machine descriptor a target's schedules are lowered against:
    [Cpu] → {!Msc_machine.Machine.xeon_server}, [Openmp] →
    {!Msc_machine.Machine.matrix_node}, [Athread] →
    {!Msc_machine.Machine.sunway_cg}. *)

val generate :
  ?steps:int ->
  ?bc:Msc_exec.Bc.t ->
  ?config:Msc_exec.Exec.Config.t ->
  Msc_ir.Stencil.t ->
  Msc_schedule.Schedule.t ->
  target ->
  file list
(** Source file(s) plus a Makefile. The schedule is lowered to a
    {!Msc_schedule.Plan.t} against the target's machine descriptor and the
    emitters walk [plan.loops]. For the [Cpu] and [Openmp] targets,
    [config] with the [Compiled_c] backend makes the generated [msc_step]
    call the same fused whole-sweep body the runtime JIT emits,
    dispatched over the plan's baked tile tasks — see
    {!Emit_cpu.generate}. The [Athread] target does not read [config]:
    its slave always computes each point as one fused summed expression,
    the fold both backends perform (see {!Emit_athread.generate_slave}).
    The plan's [working_set_bytes] is checked against the machine's SPM
    capacity.
    @raise Invalid_argument on an illegal schedule, or on a non-default
    boundary condition with the [Athread] target (the MPE-side BC pass is not
    emitted yet). *)

val fused_sweep_source : Msc_ir.Stencil.t -> string option
(** The fused whole-sweep C function the [Cpu] and [Openmp] targets embed
    under a compiled config — the source the [Compiled_c] runtime JITs.
    [None] when they fall back to the per-point path. *)

val write_files : dir:string -> file list -> unit
(** Creates [dir] if needed and writes each file. *)

val total_loc : file list -> int
(** Non-empty lines across all generated files (Table 6 accounting). *)

(** Host-side compile-and-run harness (CPU / OpenMP targets only). *)
module Toolchain : sig
  type run_result = { checksum : float; maxabs : float; output : string }

  val available : unit -> bool
  (** Is a C compiler present on this host? *)

  val compile_and_run :
    ?cc:string -> ?steps:int -> dir:string -> file list -> (run_result, string) result
  (** Writes the bundle into [dir], compiles the single .c file with [cc]
      (default "cc"; OpenMP flag added when the source uses omp pragmas),
      runs it, and parses the ["checksum ... maxabs ..."] report line. *)
end
