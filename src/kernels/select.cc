#include "kernels/select.h"

#include <cmath>
#include <numeric>

#include "kernels/dispatch.h"
#include "kernels/simd_target.h"

namespace privrec::kernels {

namespace {

struct IndexedValue {
  int64_t item;
  double utility;
};

// The running top-n of values[0, count) as a heap with RankOrderBetter as
// its "less", so the worst kept entry is on top. Ids arrive in ascending
// order, so an arriving item loses every utility tie to each kept entry
// and, once the heap is full, is admitted iff `value > worst`: one
// compare per element, exact under (utility desc, item asc).
void DenseTopN(const double* values, int64_t count, int64_t n,
               std::vector<IndexedValue>* heap) {
  const RankOrderBetter better;
  int64_t i = 0;
  for (; i < count && static_cast<int64_t>(heap->size()) < n; ++i) {
    heap->push_back(IndexedValue{i, values[i]});
    std::push_heap(heap->begin(), heap->end(), better);
  }
  if (i == count) return;
  IndexedValue* top = heap->data();
  const size_t size = heap->size();
  double worst = top[0].utility;
  auto offer = [&](int64_t j) {
    if (!(values[j] > worst)) return;
    ReplaceWorst(top, size, IndexedValue{j, values[j]});
    worst = top[0].utility;
  };
  // Four values per branch: when none of them beats the worst kept
  // value (the common case once the heap has warmed up), one compare of
  // their maximum skips all four.
  for (; i + 4 <= count; i += 4) {
    const double m = std::max(std::max(values[i], values[i + 1]),
                              std::max(values[i + 2], values[i + 3]));
    if (m > worst) {
      for (int64_t j = i; j < i + 4; ++j) offer(j);
    }
  }
  for (; i < count; ++i) offer(i);
}

// std::max_element's loop: a later element replaces the kept one only if
// it is strictly larger.
[[gnu::noinline]] PRIVREC_KERNEL_SCALAR
int64_t FirstArgMaxScalarBody(const double* values, int64_t count) {
  int64_t best = 0;
  for (int64_t i = 1; i < count; ++i) {
    if (values[best] < values[i]) best = i;
  }
  return best;
}

#if defined(PRIVREC_KERNELS_HAVE_AVX2)

// Two passes: the maximum over 4-wide lanes, then the first index whose
// value equals it. The scalar loop never moves to a NaN, so it keeps the
// first element equal to the largest of values[0] and the non-NaN values
// (a -0.0 and a +0.0 compare equal there and in `==`, so whichever zero
// _mm256_max_pd returns gives the same index). Every lane starts from
// values[0] and takes the loaded vector as the first operand, which
// _mm256_max_pd drops for the second when either is NaN: a NaN never
// enters a lane. From a NaN values[0] the scalar loop never moves.
__attribute__((target("avx2"))) int64_t FirstArgMaxAvx2Body(
    const double* values, int64_t count) {
  double max = values[0];
  if (std::isnan(max)) return 0;
  const int64_t vec_end = count & ~int64_t{3};
  if (vec_end > 0) {
    __m256d m = _mm256_set1_pd(max);
    for (int64_t i = 0; i < vec_end; i += 4) {
      m = _mm256_max_pd(_mm256_loadu_pd(values + i), m);
    }
    const __m128d half =
        _mm_max_pd(_mm256_castpd256_pd128(m), _mm256_extractf128_pd(m, 1));
    max = _mm_cvtsd_f64(_mm_max_sd(half, _mm_unpackhi_pd(half, half)));
  }
  for (int64_t i = vec_end; i < count; ++i) {
    if (max < values[i]) max = values[i];
  }
  const __m256d target = _mm256_set1_pd(max);
  for (int64_t i = 0; i < vec_end; i += 4) {
    const int hit = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(values + i), target, _CMP_EQ_OQ));
    if (hit != 0) return i + __builtin_ctz(static_cast<unsigned>(hit));
  }
  for (int64_t i = vec_end; i < count; ++i) {
    if (values[i] == max) return i;
  }
  return 0;  // not reached: `max` is one of the values
}

#endif  // PRIVREC_KERNELS_HAVE_AVX2

}  // namespace

void SelectTopNIndicesDense(const double* values, int64_t num_values,
                            int64_t n, std::vector<int64_t>* out) {
  out->clear();
  const int64_t keep = std::min<int64_t>(n, num_values);
  if (keep <= 0) return;

  // Same crossover as SelectTopNInPlace (see kHeapSelectRatio): the
  // reconstruction shape takes the one-pass dense heap, a near-full
  // selection keeps the linear partition.
  if (keep * kHeapSelectRatio <= num_values) {
    std::vector<IndexedValue> heap;
    heap.reserve(static_cast<size_t>(keep));
    DenseTopN(values, num_values, keep, &heap);
    std::sort_heap(heap.begin(), heap.end(), RankOrderBetter{});
    out->reserve(static_cast<size_t>(keep));
    for (const IndexedValue& e : heap) out->push_back(e.item);
    return;
  }
  // Index comparison under (value desc, index asc) — the same total
  // order as RankOrderBetter on materialized pairs, since the dense
  // item id IS the index. `out` doubles as the index array.
  auto better = [values](int64_t a, int64_t b) {
    if (values[a] != values[b]) return values[a] > values[b];
    return a < b;
  };
  out->resize(static_cast<size_t>(num_values));
  std::iota(out->begin(), out->end(), int64_t{0});
  if (keep < num_values) {
    std::nth_element(out->begin(), out->begin() + keep, out->end(), better);
  }
  std::sort(out->begin(), out->begin() + keep, better);
  out->resize(static_cast<size_t>(keep));
}

int64_t FirstArgMaxScalar(const double* values, int64_t count) {
  return FirstArgMaxScalarBody(values, count);
}

int64_t FirstArgMax(const double* values, int64_t count) {
#if defined(PRIVREC_KERNELS_HAVE_AVX2)
  if (ActiveDispatchLevel() == DispatchLevel::kAvx2) {
    return FirstArgMaxAvx2Body(values, count);
  }
#endif
  return FirstArgMaxScalarBody(values, count);
}

}  // namespace privrec::kernels
