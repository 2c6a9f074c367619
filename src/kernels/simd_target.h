// Build switches shared by the kernels' translation units (not part of
// the kernels' API): whether the AVX2 bodies are compiled in, and the
// attribute that keeps a scalar reference body genuinely scalar.

#ifndef PRIVREC_KERNELS_SIMD_TARGET_H_
#define PRIVREC_KERNELS_SIMD_TARGET_H_

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define PRIVREC_KERNELS_HAVE_AVX2 1
#endif

#if defined(__GNUC__) && !defined(__clang__)
// Without this, -O3 auto-vectorizes the reference loops and "scalar vs
// SIMD" stops naming two distinct code paths.
#define PRIVREC_KERNEL_SCALAR \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define PRIVREC_KERNEL_SCALAR
#endif

#endif  // PRIVREC_KERNELS_SIMD_TARGET_H_
