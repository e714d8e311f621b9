/* STREAM triad over OCaml float arrays: the host bandwidth probe. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>

void msc_bench_triad(value a, value b, value c, intnat lo, intnat hi)
{
  double *restrict pa = (double *)a;
  const double *restrict pb = (const double *)b;
  const double *restrict pc = (const double *)c;
  for (intnat i = lo; i < hi; i++)
    pa[i] = pb[i] + 3.0 * pc[i];
}

value msc_bench_triad_byte(value a, value b, value c, value lo, value hi)
{
  msc_bench_triad(a, b, c, Long_val(lo), Long_val(hi));
  return Val_unit;
}
