/* Halo payload copies (lib/comm/halo.ml): move a slab between a grid's
 * flat float array and a float64 little-endian payload, one memcpy per
 * (offset, length) run. [runs] is the flat [| off0; len0; off1; len1; ... |]
 * array a halo link compiles; [pos] is the payload byte where the slab
 * starts. The caller has checked every bound (the runs come from the
 * grid's own geometry and the payload holds one slab per grid), so the
 * stubs allocate nothing and never raise. On a big-endian host each
 * element is byte-swapped instead. */

#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

/* A column slab is one run per row, each a single element: that case is
   one 8-byte move, not a call to memcpy. */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
static inline void copy_le(void *dst, const void *src, size_t elems)
{
  const unsigned char *s = src;
  unsigned char *d = dst;
  for (size_t i = 0; i < elems; i++) {
    uint64_t v;
    memcpy(&v, s + 8 * i, 8);
    v = __builtin_bswap64(v);
    memcpy(d + 8 * i, &v, 8);
  }
}
#else
static inline void copy_le(void *dst, const void *src, size_t elems)
{
  if (elems == 1)
    memcpy(dst, src, 8);
  else
    memcpy(dst, src, 8 * elems);
}
#endif

CAMLprim value msc_halo_pack(value data, value runs, value buf, value pos)
{
  const double *grid = (const double *)data;
  unsigned char *out = Bytes_val(buf) + Long_val(pos);
  mlsize_t n = Wosize_val(runs);
  for (mlsize_t r = 0; r + 1 < n; r += 2) {
    size_t len = Long_val(Field(runs, r + 1));
    copy_le(out, grid + Long_val(Field(runs, r)), len);
    out += 8 * len;
  }
  return Val_unit;
}

CAMLprim value msc_halo_unpack(value data, value runs, value buf, value pos)
{
  double *grid = (double *)data;
  const unsigned char *in = Bytes_val(buf) + Long_val(pos);
  mlsize_t n = Wosize_val(runs);
  for (mlsize_t r = 0; r + 1 < n; r += 2) {
    size_t len = Long_val(Field(runs, r + 1));
    copy_le(grid + Long_val(Field(runs, r)), in, len);
    in += 8 * len;
  }
  return Val_unit;
}
