/* Stubs behind the compiled-kernel backend (lib/exec/jit.ml):
 *
 * - msc_jit_dlopen: load a kernel shared object produced by the C backend
 *   and resolve its entry point, returned as a nativeint function pointer.
 * - msc_jit_call_sweep: invoke a loaded fused write-through sweep kernel
 *   (Backend.sweep_fn) — one source array per stencil term plus the
 *   concatenated aux slots. Grid data arrays are OCaml flat float arrays
 *   passed as double*; srcs/aux/lo/hi are unpacked into C locals before
 *   the call, so the kernel only ever sees raw C data. Each array's base
 *   pointer is moved back by its shift (srcs, then dst, then aux; an
 *   empty shift array means no shift): a window holding a slab of the
 *   padded box is then indexed with the full geometry's flat indices.
 * - msc_jit_call_reduce: invoke a loaded reduction kernel
 *   (Backend.reduce_fn), unpacked the same way, and store its partial
 *   into a flat float array, so the call allocates nothing.
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>

#include <dlfcn.h>
#include <string.h>

CAMLprim value msc_jit_dlopen(value path, value sym)
{
  CAMLparam2(path, sym);
  void *handle;
  void *fn;
  handle = dlopen(String_val(path), RTLD_NOW | RTLD_LOCAL);
  if (handle == NULL) {
    const char *err = dlerror();
    caml_failwith(err == NULL ? "dlopen failed" : err);
  }
  fn = dlsym(handle, String_val(sym));
  if (fn == NULL) {
    dlclose(handle);
    caml_failwith("msc_jit_dlopen: kernel symbol not found");
  }
  /* The handle is deliberately leaked: kernels stay loaded for the process
     lifetime (the in-memory cache in jit.ml never unloads them). */
  CAMLreturn(caml_copy_nativeint((intnat)fn));
}

#define MSC_JIT_MAX 64

typedef void (*msc_sweep_t)(const double **srcs, double *dst,
                            const double **aux, const long *lo,
                            const long *hi);

CAMLprim value msc_jit_call_sweep_native(value fn, value srcs, value dst,
                                         value aux, value shifts, value lo,
                                         value hi)
{
  const double *srcp[MSC_JIT_MAX];
  const double *auxp[MSC_JIT_MAX];
  long lov[MSC_JIT_MAX], hiv[MSC_JIT_MAX];
  mlsize_t nsrc = Wosize_val(srcs);
  mlsize_t naux = Wosize_val(aux);
  mlsize_t nshift = Wosize_val(shifts);
  mlsize_t nd = Wosize_val(lo);
  mlsize_t i;
  long dst_shift = 0;
  if (nsrc > MSC_JIT_MAX || naux > MSC_JIT_MAX || nd > MSC_JIT_MAX ||
      Wosize_val(hi) != nd)
    caml_invalid_argument("msc_jit_call_sweep: rank, term or aux count out of range");
  if (nshift != 0 && nshift != nsrc + 1 + naux)
    caml_invalid_argument("msc_jit_call_sweep: one shift per array expected");
  for (i = 0; i < nsrc; i++)
    srcp[i] = (const double *)Op_val(Field(srcs, i)) -
              (nshift ? Long_val(Field(shifts, i)) : 0);
  if (nshift) dst_shift = Long_val(Field(shifts, nsrc));
  for (i = 0; i < naux; i++)
    auxp[i] = (const double *)Op_val(Field(aux, i)) -
              (nshift ? Long_val(Field(shifts, nsrc + 1 + i)) : 0);
  for (i = 0; i < nd; i++) {
    lov[i] = Long_val(Field(lo, i));
    hiv[i] = Long_val(Field(hi, i));
  }
  ((msc_sweep_t)Nativeint_val(fn))(srcp, (double *)Op_val(dst) - dst_shift,
                                   auxp, lov, hiv);
  return Val_unit;
}

CAMLprim value msc_jit_call_sweep_bytecode(value *argv, int argn)
{
  (void)argn;
  return msc_jit_call_sweep_native(argv[0], argv[1], argv[2], argv[3],
                                   argv[4], argv[5], argv[6]);
}

typedef double (*msc_reduce_t)(long op, const double *a, const double *b,
                               const long *lo, const long *hi);

CAMLprim value msc_jit_call_reduce_native(value fn, value op, value a, value b,
                                          value lo, value hi, value out,
                                          value slot)
{
  long lov[MSC_JIT_MAX], hiv[MSC_JIT_MAX];
  mlsize_t nd = Wosize_val(lo);
  mlsize_t i;
  long k = Long_val(slot);
  if (nd > MSC_JIT_MAX || Wosize_val(hi) != nd)
    caml_invalid_argument("msc_jit_call_reduce: rank out of range");
  if (k < 0 || (mlsize_t)k >= Wosize_val(out) / Double_wosize)
    caml_invalid_argument("msc_jit_call_reduce: partial slot out of range");
  for (i = 0; i < nd; i++) {
    lov[i] = Long_val(Field(lo, i));
    hiv[i] = Long_val(Field(hi, i));
  }
  Store_double_flat_field(out, k,
      ((msc_reduce_t)Nativeint_val(fn))(Long_val(op),
                                        (const double *)Op_val(a),
                                        (const double *)Op_val(b), lov, hiv));
  return Val_unit;
}

CAMLprim value msc_jit_call_reduce_bytecode(value *argv, int argn)
{
  (void)argn;
  return msc_jit_call_reduce_native(argv[0], argv[1], argv[2], argv[3],
                                    argv[4], argv[5], argv[6], argv[7]);
}
