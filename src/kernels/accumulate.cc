#include "kernels/accumulate.h"

#include <algorithm>

#include "kernels/dispatch.h"
#include "kernels/simd_target.h"

namespace privrec::kernels {

namespace {

// The scalar reference of every sum: out[i] (+)= Σ_k scales[k] *
// rows[k][offset + i] for i in [0, count), rows added in order onto
// out[i] when `add`, onto +0.0 otherwise. One multiply and one add per
// term, each rounded once.
template <typename Row>
[[gnu::noinline]] PRIVREC_KERNEL_SCALAR void SumScalarBody(
    const Row* const* rows, int64_t offset, const double* scales,
    int64_t num_rows, int64_t count, bool add, double* out) {
  if (!add) std::fill_n(out, count, 0.0);
  for (int64_t k = 0; k < num_rows; ++k) {
    const double s = scales[k];
    const Row* row = rows[k] + offset;
    for (int64_t i = 0; i < count; ++i) {
      out[i] += s * static_cast<double>(row[i]);
    }
  }
}

#if defined(PRIVREC_KERNELS_HAVE_AVX2)

// Four row elements as f64 lanes; the f32 ones widened (exact). The
// masked forms read only the first `tail` elements and zero the other
// lanes, so a chunk's tail never reads past its row.
__attribute__((target("avx2"), always_inline)) inline __m256d Lanes(
    const double* p) {
  return _mm256_loadu_pd(p);
}
__attribute__((target("avx2"), always_inline)) inline __m256d Lanes(
    const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}
__attribute__((target("avx2"), always_inline)) inline __m256i TailMask(
    int64_t tail) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(tail),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}
__attribute__((target("avx2"), always_inline)) inline __m256d MaskedLanes(
    const double* p, int64_t tail) {
  return _mm256_maskload_pd(p, TailMask(tail));
}
__attribute__((target("avx2"), always_inline)) inline __m256d MaskedLanes(
    const float* p, int64_t tail) {
  const __m128i mask = _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(tail)),
                                       _mm_setr_epi32(0, 1, 2, 3));
  return _mm256_cvtps_pd(_mm_maskload_ps(p, mask));
}

// The same sum over one chunk of at most kSumBlockMaxItems items: kLanes
// 4-wide accumulators, all in registers for the whole row loop; with
// kTail the last one holds the count % 4 items of a short chunk, read
// and written through a mask. The accumulators start from
// `out` when `add`, from +0.0 otherwise, so per lane the sequence is
// ((start + s0*r0) + s1*r1) + ..., separate mul and add (no fma feature
// on the target, so no contraction): the scalar body's bits. `out` is
// read at most once and written once.
template <typename Row, int kLanes, bool kTail>
[[gnu::noinline]] __attribute__((target("avx2"))) void SumAvx2Body(
    const Row* const* rows, int64_t offset, const double* scales,
    int64_t num_rows, int64_t count, bool add, double* out) {
  constexpr int kFull = kTail ? kLanes - 1 : kLanes;
  const int64_t tail = count & 3;
  __m256d acc[kLanes];
  if (add) {
#pragma GCC unroll 8
    for (int v = 0; v < kFull; ++v) acc[v] = _mm256_loadu_pd(out + 4 * v);
    if constexpr (kTail) {
      acc[kFull] = _mm256_maskload_pd(out + 4 * kFull, TailMask(tail));
    }
  } else {
#pragma GCC unroll 8
    for (int v = 0; v < kLanes; ++v) acc[v] = _mm256_setzero_pd();
  }
  for (int64_t k = 0; k < num_rows; ++k) {
    const __m256d s = _mm256_set1_pd(scales[k]);
    const Row* row = rows[k] + offset;
#pragma GCC unroll 8
    for (int v = 0; v < kFull; ++v) {
      acc[v] = _mm256_add_pd(acc[v], _mm256_mul_pd(s, Lanes(row + 4 * v)));
    }
    if constexpr (kTail) {
      acc[kFull] = _mm256_add_pd(
          acc[kFull], _mm256_mul_pd(s, MaskedLanes(row + 4 * kFull, tail)));
    }
  }
#pragma GCC unroll 8
  for (int v = 0; v < kFull; ++v) _mm256_storeu_pd(out + 4 * v, acc[v]);
  if constexpr (kTail) {
    _mm256_maskstore_pd(out + 4 * kFull, TailMask(tail), acc[kFull]);
  }
}

template <typename Row>
using SumBody = void (*)(const Row* const*, int64_t, const double*, int64_t,
                         int64_t, bool, double*);

// The AVX2 body for each count in [1, kSumBlockMaxItems]: [tail][lanes - 1].
template <typename Row>
constexpr SumBody<Row> kSumAvx2[2][kSumBlockMaxItems / 4] = {
    {&SumAvx2Body<Row, 1, false>, &SumAvx2Body<Row, 2, false>,
     &SumAvx2Body<Row, 3, false>, &SumAvx2Body<Row, 4, false>,
     &SumAvx2Body<Row, 5, false>, &SumAvx2Body<Row, 6, false>,
     &SumAvx2Body<Row, 7, false>, &SumAvx2Body<Row, 8, false>},
    {&SumAvx2Body<Row, 1, true>, &SumAvx2Body<Row, 2, true>,
     &SumAvx2Body<Row, 3, true>, &SumAvx2Body<Row, 4, true>,
     &SumAvx2Body<Row, 5, true>, &SumAvx2Body<Row, 6, true>,
     &SumAvx2Body<Row, 7, true>, &SumAvx2Body<Row, 8, true>}};

#endif  // PRIVREC_KERNELS_HAVE_AVX2

// The dispatched sum: at AVX2, the AVX2 body over kSumBlockMaxItems-item
// chunks, each chunk's items summed over every row before the next
// chunk; otherwise the scalar body over the whole range. Per element the
// add sequence is the same, so the bits are. Inlined into each entry
// point, so the chunk loop is the entry point's own code.
template <typename Row>
[[gnu::always_inline]] inline void SumDispatched(
    const Row* const* rows, int64_t offset, const double* scales,
    int64_t num_rows, int64_t count, bool add, double* out) {
#if defined(PRIVREC_KERNELS_HAVE_AVX2)
  if (ActiveDispatchLevel() == DispatchLevel::kAvx2) {
    for (int64_t b = 0; b < count; b += kSumBlockMaxItems) {
      const int64_t n = std::min(kSumBlockMaxItems, count - b);
      kSumAvx2<Row>[(n & 3) != 0][(n - 1) / 4](rows, offset + b, scales,
                                               num_rows, n, add, out + b);
    }
    return;
  }
#endif
  SumScalarBody(rows, offset, scales, num_rows, count, add, out);
}

}  // namespace

void AccumulateRowsScalar(const double* const* rows, const double* scales,
                          int64_t num_rows, int64_t num_items,
                          double* out) {
  if (num_rows <= 0 || num_items <= 0) return;
  SumScalarBody(rows, 0, scales, num_rows, num_items, true, out);
}

void AccumulateRowsF32Scalar(const float* const* rows,
                             const double* scales, int64_t num_rows,
                             int64_t num_items, double* out) {
  if (num_rows <= 0 || num_items <= 0) return;
  SumScalarBody(rows, 0, scales, num_rows, num_items, true, out);
}

void AccumulateRows(const double* const* rows, const double* scales,
                    int64_t num_rows, int64_t num_items, double* out) {
  if (num_rows <= 0 || num_items <= 0) return;
  SumDispatched(rows, 0, scales, num_rows, num_items, true, out);
}

void AccumulateRowsF32(const float* const* rows, const double* scales,
                       int64_t num_rows, int64_t num_items, double* out) {
  if (num_rows <= 0 || num_items <= 0) return;
  SumDispatched(rows, 0, scales, num_rows, num_items, true, out);
}

void SumBlock(const double* const* rows, int64_t offset,
              const double* scales, int64_t num_rows, int64_t count,
              double* out) {
  SumDispatched(rows, offset, scales, num_rows, count, false, out);
}

void SumBlockF32(const float* const* rows, int64_t offset,
                 const double* scales, int64_t num_rows, int64_t count,
                 double* out) {
  SumDispatched(rows, offset, scales, num_rows, count, false, out);
}

void SumBlockScalar(const double* const* rows, int64_t offset,
                    const double* scales, int64_t num_rows, int64_t count,
                    double* out) {
  SumScalarBody(rows, offset, scales, num_rows, count, false, out);
}

void SumBlockF32Scalar(const float* const* rows, int64_t offset,
                       const double* scales, int64_t num_rows,
                       int64_t count, double* out) {
  SumScalarBody(rows, offset, scales, num_rows, count, false, out);
}

}  // namespace privrec::kernels
