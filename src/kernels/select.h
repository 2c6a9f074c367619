// Selection under the library's one ranking order — utility descending,
// item id ascending on ties — and the first-maximum scan that orders
// best-first's blocks in the reconstruction.
//
// Two shapes of top-N input, two selectors:
//  - A materialized list (`SelectTopNInPlace`) picks its algorithm by the
//    keep/size ratio: partial_sort's bounded heap while keep is a small
//    fraction of size, nth_element + sort of the prefix once the heap
//    would churn.
//  - A dense vector (`SelectTopNIndicesDense`) is one pass of a bounded
//    worst-on-top heap fed values whose item ids only increase, so an
//    arriving item loses every utility tie to the items already kept and
//    is admitted by a single `value > worst` compare, with no index array
//    and no materialized pairs; nth_element only for near-full
//    selections.
// Because the comparator is a strict total order (the item id breaks
// every utility tie), the top-`keep` set and its sorted order are unique,
// so every algorithm produces element-for-element identical output;
// BM_KernelSelectTopN* pins the crossover choice.
//
// `FirstArgMax` is a dispatched kernel (kernels/dispatch.h) like
// AccumulateRows: its AVX2 path returns the scalar reference's index on
// every input.

#ifndef PRIVREC_KERNELS_SELECT_H_
#define PRIVREC_KERNELS_SELECT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace privrec::kernels {

// The shared ranking order over anything with `.utility` and `.item`
// members (core::Recommendation and friends).
struct RankOrderBetter {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    if (a.utility != b.utility) return a.utility > b.utility;
    return a.item < b.item;
  }
};

// Selection shape where partial_sort's bounded heap beats nth_element:
// while keep is a small fraction of size, almost every element loses one
// comparison against the heap top and moves on; past this ratio the heap
// churns and nth_element's O(size) partitioning wins.
inline constexpr int64_t kHeapSelectRatio = 8;

// In-place selection: keeps the top min(n, size) entries of `list` in
// rank order and truncates the rest. The single selection helper behind
// every materialized top-N surface; also the scalar SelectTopN
// reference that kernels_test compares the dense path against.
template <typename List>
void SelectTopNInPlace(List& list, int64_t n) {
  const int64_t size = static_cast<int64_t>(list.size());
  const int64_t keep = std::min<int64_t>(n, size);
  if (keep <= 0) {
    list.clear();
    return;
  }
  if (keep * kHeapSelectRatio <= size) {
    std::partial_sort(list.begin(), list.begin() + keep, list.end(),
                      RankOrderBetter{});
  } else {
    if (keep < size) {
      std::nth_element(list.begin(), list.begin() + keep, list.end(),
                       RankOrderBetter{});
    }
    std::sort(list.begin(), list.begin() + keep, RankOrderBetter{});
  }
  list.resize(static_cast<typename List::size_type>(keep));
}

// Replaces the worst entry of a full heap ordered with RankOrderBetter as
// its "less" (so heap[0] is the worst kept entry) by `entry`, which must
// rank better than it: the newcomer sifts down below every child it
// beats, one root-to-leaf pass instead of pop + push. Always inlined, so
// each selector (core::TopNAccumulator, the dense selector) keeps it in
// its own code.
template <typename Entry>
[[gnu::always_inline]] inline void ReplaceWorst(Entry* heap, size_t size,
                                                const Entry& entry) {
  const RankOrderBetter better;
  size_t hole = 0;
  for (size_t child = 1; child < size; child = 2 * hole + 1) {
    if (child + 1 < size && better(heap[child], heap[child + 1])) {
      ++child;  // the worse of the two children
    }
    if (better(heap[child], entry)) break;  // worse than both: stay
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = entry;
}

// Selects the top min(n, num_values) indices of `values` under the same
// order (value desc, index asc) into `out`, in rank order. The usual
// reconstruction shape (n in the tens, values in the thousands) is one
// dense heap pass; a near-full selection (past kHeapSelectRatio)
// partitions an index array with nth_element instead. Values must not be
// NaN.
void SelectTopNIndicesDense(const double* values, int64_t num_values,
                            int64_t n, std::vector<int64_t>* out);

// The index of the first largest of values[0, count), the element
// std::max_element returns: ties go to the lower index, a run of -inf
// returns 0, and a NaN is never moved to (a NaN values[0] returns 0).
// `count` must be at least 1. Dispatched (ActiveDispatchLevel): the AVX2
// path takes the maximum four lanes at a time, then the first index
// equal to it; it returns FirstArgMaxScalar's index on every input.
int64_t FirstArgMax(const double* values, int64_t count);

// The scalar reference of FirstArgMax, exposed so kernels_test can hold
// the dispatched entry point to it.
int64_t FirstArgMaxScalar(const double* values, int64_t count);

}  // namespace privrec::kernels

#endif  // PRIVREC_KERNELS_SELECT_H_
