#include "kernels/accumulate.h"

#include <algorithm>

#include "kernels/dispatch.h"
#include "kernels/simd_target.h"

namespace privrec::kernels {

namespace {

PRIVREC_KERNEL_SCALAR
void ScalarBody(const double* const* rows, const double* scales,
                int64_t num_rows, int64_t num_items, double* out) {
  for (int64_t b = 0; b < num_items; b += kAccumulateBlockItems) {
    const int64_t e = std::min(num_items, b + kAccumulateBlockItems);
    for (int64_t k = 0; k < num_rows; ++k) {
      const double s = scales[k];
      const double* row = rows[k];
      for (int64_t i = b; i < e; ++i) out[i] += s * row[i];
    }
  }
}

PRIVREC_KERNEL_SCALAR
void ScalarBodyF32(const float* const* rows, const double* scales,
                   int64_t num_rows, int64_t num_items, double* out) {
  for (int64_t b = 0; b < num_items; b += kAccumulateBlockItems) {
    const int64_t e = std::min(num_items, b + kAccumulateBlockItems);
    for (int64_t k = 0; k < num_rows; ++k) {
      const double s = scales[k];
      const float* row = rows[k];
      for (int64_t i = b; i < e; ++i) {
        out[i] += s * static_cast<double>(row[i]);
      }
    }
  }
}

#if defined(PRIVREC_KERNELS_HAVE_AVX2)

// 4-wide f64 lanes across items, four rows fused per pass. Separate
// mul + add (the target lacks the fma feature, so GCC cannot contract
// them) and in-row-order adds into each lane: per element the rounding
// sequence is ((out + s0*r0) + s1*r1) + ... — exactly what the scalar
// body's row-at-a-time loop produces — so fusing rows only changes how
// often `out` crosses the cache hierarchy (once per four rows instead
// of once per row), never a bit of the result.
__attribute__((target("avx2"))) void Avx2Body(const double* const* rows,
                                              const double* scales,
                                              int64_t num_rows,
                                              int64_t num_items,
                                              double* out) {
  for (int64_t b = 0; b < num_items; b += kAccumulateBlockItems) {
    const int64_t e = std::min(num_items, b + kAccumulateBlockItems);
    const int64_t vec_end = b + ((e - b) & ~int64_t{3});
    int64_t k = 0;
    for (; k + 4 <= num_rows; k += 4) {
      const double* r0 = rows[k];
      const double* r1 = rows[k + 1];
      const double* r2 = rows[k + 2];
      const double* r3 = rows[k + 3];
      const __m256d s0 = _mm256_set1_pd(scales[k]);
      const __m256d s1 = _mm256_set1_pd(scales[k + 1]);
      const __m256d s2 = _mm256_set1_pd(scales[k + 2]);
      const __m256d s3 = _mm256_set1_pd(scales[k + 3]);
      for (int64_t i = b; i < vec_end; i += 4) {
        __m256d acc = _mm256_loadu_pd(out + i);
        acc = _mm256_add_pd(acc,
                            _mm256_mul_pd(s0, _mm256_loadu_pd(r0 + i)));
        acc = _mm256_add_pd(acc,
                            _mm256_mul_pd(s1, _mm256_loadu_pd(r1 + i)));
        acc = _mm256_add_pd(acc,
                            _mm256_mul_pd(s2, _mm256_loadu_pd(r2 + i)));
        acc = _mm256_add_pd(acc,
                            _mm256_mul_pd(s3, _mm256_loadu_pd(r3 + i)));
        _mm256_storeu_pd(out + i, acc);
      }
      for (int64_t i = vec_end; i < e; ++i) {
        double acc = out[i];
        acc += scales[k] * r0[i];
        acc += scales[k + 1] * r1[i];
        acc += scales[k + 2] * r2[i];
        acc += scales[k + 3] * r3[i];
        out[i] = acc;
      }
    }
    for (; k < num_rows; ++k) {
      const double s = scales[k];
      const double* row = rows[k];
      const __m256d vs = _mm256_set1_pd(s);
      for (int64_t i = b; i < vec_end; i += 4) {
        __m256d acc = _mm256_loadu_pd(out + i);
        __m256d prod = _mm256_mul_pd(vs, _mm256_loadu_pd(row + i));
        _mm256_storeu_pd(out + i, _mm256_add_pd(acc, prod));
      }
      for (int64_t i = vec_end; i < e; ++i) out[i] += s * row[i];
    }
  }
}

__attribute__((target("avx2"))) void Avx2BodyF32(const float* const* rows,
                                                 const double* scales,
                                                 int64_t num_rows,
                                                 int64_t num_items,
                                                 double* out) {
  for (int64_t b = 0; b < num_items; b += kAccumulateBlockItems) {
    const int64_t e = std::min(num_items, b + kAccumulateBlockItems);
    const int64_t vec_end = b + ((e - b) & ~int64_t{3});
    int64_t k = 0;
    // Same two-level structure as Avx2Body: fuse four rows per pass over
    // the block (out traffic /4), f32 -> f64 widening exact per lane.
    for (; k + 4 <= num_rows; k += 4) {
      const float* r0 = rows[k];
      const float* r1 = rows[k + 1];
      const float* r2 = rows[k + 2];
      const float* r3 = rows[k + 3];
      const __m256d s0 = _mm256_set1_pd(scales[k]);
      const __m256d s1 = _mm256_set1_pd(scales[k + 1]);
      const __m256d s2 = _mm256_set1_pd(scales[k + 2]);
      const __m256d s3 = _mm256_set1_pd(scales[k + 3]);
      for (int64_t i = b; i < vec_end; i += 4) {
        __m256d acc = _mm256_loadu_pd(out + i);
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(s0, _mm256_cvtps_pd(_mm_loadu_ps(r0 + i))));
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(s1, _mm256_cvtps_pd(_mm_loadu_ps(r1 + i))));
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(s2, _mm256_cvtps_pd(_mm_loadu_ps(r2 + i))));
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(s3, _mm256_cvtps_pd(_mm_loadu_ps(r3 + i))));
        _mm256_storeu_pd(out + i, acc);
      }
      for (int64_t i = vec_end; i < e; ++i) {
        double acc = out[i];
        acc += scales[k] * static_cast<double>(r0[i]);
        acc += scales[k + 1] * static_cast<double>(r1[i]);
        acc += scales[k + 2] * static_cast<double>(r2[i]);
        acc += scales[k + 3] * static_cast<double>(r3[i]);
        out[i] = acc;
      }
    }
    for (; k < num_rows; ++k) {
      const double s = scales[k];
      const float* row = rows[k];
      const __m256d vs = _mm256_set1_pd(s);
      for (int64_t i = b; i < vec_end; i += 4) {
        // f32 -> f64 widening is exact, so lanes match the scalar cast.
        __m256d wide = _mm256_cvtps_pd(_mm_loadu_ps(row + i));
        __m256d acc = _mm256_loadu_pd(out + i);
        _mm256_storeu_pd(out + i,
                         _mm256_add_pd(acc, _mm256_mul_pd(vs, wide)));
      }
      for (int64_t i = vec_end; i < e; ++i) {
        out[i] += s * static_cast<double>(row[i]);
      }
    }
  }
}

#endif  // PRIVREC_KERNELS_HAVE_AVX2

}  // namespace

void AccumulateRowsScalar(const double* const* rows, const double* scales,
                          int64_t num_rows, int64_t num_items,
                          double* out) {
  if (num_rows <= 0 || num_items <= 0) return;
  ScalarBody(rows, scales, num_rows, num_items, out);
}

void AccumulateRowsF32Scalar(const float* const* rows,
                             const double* scales, int64_t num_rows,
                             int64_t num_items, double* out) {
  if (num_rows <= 0 || num_items <= 0) return;
  ScalarBodyF32(rows, scales, num_rows, num_items, out);
}

void AccumulateRows(const double* const* rows, const double* scales,
                    int64_t num_rows, int64_t num_items, double* out) {
  if (num_rows <= 0 || num_items <= 0) return;
#if defined(PRIVREC_KERNELS_HAVE_AVX2)
  if (ActiveDispatchLevel() == DispatchLevel::kAvx2) {
    Avx2Body(rows, scales, num_rows, num_items, out);
    return;
  }
#endif
  ScalarBody(rows, scales, num_rows, num_items, out);
}

void AccumulateRowsF32(const float* const* rows, const double* scales,
                       int64_t num_rows, int64_t num_items, double* out) {
  if (num_rows <= 0 || num_items <= 0) return;
#if defined(PRIVREC_KERNELS_HAVE_AVX2)
  if (ActiveDispatchLevel() == DispatchLevel::kAvx2) {
    Avx2BodyF32(rows, scales, num_rows, num_items, out);
    return;
  }
#endif
  ScalarBodyF32(rows, scales, num_rows, num_items, out);
}

}  // namespace privrec::kernels
