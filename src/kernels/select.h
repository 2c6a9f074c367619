// SelectTopN: partial top-N selection under the library's one ranking
// order — utility descending, item id ascending on ties. Replaces the
// full `std::partial_sort` blocks that were duplicated across
// core::TopNFromDense / TopNFromSparse.
//
// Two shapes of input, two selectors:
//  - A materialized list (`SelectTopNInPlace`) picks its algorithm by the
//    keep/size ratio: partial_sort's bounded heap while keep is a small
//    fraction of size, nth_element + sort of the prefix once the heap
//    would churn.
//  - A dense scan (`DenseTopNOffer` / `DenseTopNFinish`) is the one dense
//    selector: a bounded worst-on-top heap fed values whose item ids only
//    increase, so an arriving item loses every utility tie to the items
//    already kept and is admitted by a single `value > worst` compare. It
//    needs no index array and no materialized pairs, and it can be fed
//    block by block while each block is still in L1 (the tiled
//    reconstruction in artifact/reconstruct.h does exactly that).
//    `SelectTopNIndicesDense` runs it as one pass over a whole vector,
//    keeping nth_element only for near-full selections.
// Because the comparator is a strict total order (the item id breaks
// every utility tie), the top-`keep` set and its sorted order are unique,
// so every algorithm produces element-for-element identical output;
// BM_KernelSelectTopN* pins the crossover choice.

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
// the hot selectors keep it in their own (pinned) code.
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

// The dense selector. `heap` holds the running top-n of a scan, worst
// entry on top (`RankOrderBetter` as the heap's "less"); entries are
// anything with `.item` and `.utility` members. Each call offers
// values[0, count) as items first_item .. first_item + count - 1, and
// across calls on one heap the item ids must strictly increase. An
// offered item therefore loses every utility tie to each kept entry, so
// once the heap is full it is admitted iff `value > worst` — one compare
// per element, exact under (utility desc, item asc). n <= 0 keeps
// nothing. Values must not be NaN.
template <typename Entry>
void DenseTopNOffer(const double* values, int64_t first_item, int64_t count,
                    int64_t n, std::vector<Entry>* heap) {
  if (n <= 0) return;
  // RankOrderBetter as the heap's "less" puts the worst entry on top.
  const RankOrderBetter better;
  int64_t i = 0;
  for (; i < count && static_cast<int64_t>(heap->size()) < n; ++i) {
    heap->push_back(Entry{first_item + i, values[i]});
    std::push_heap(heap->begin(), heap->end(), better);
  }
  if (i == count) return;
  Entry* top = heap->data();
  const size_t size = heap->size();
  double worst = top[0].utility;
  auto offer = [&](int64_t j) {
    if (!(values[j] > worst)) return;
    ReplaceWorst(top, size, Entry{first_item + j, values[j]});
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

// Ends a DenseTopNOffer scan: `heap` becomes the ranked list, best first.
template <typename Entry>
void DenseTopNFinish(std::vector<Entry>* heap) {
  std::sort_heap(heap->begin(), heap->end(), RankOrderBetter{});
}

// Selects the top min(n, num_values) indices of `values` under the same
// order (value desc, index asc) into `out`, in rank order. The usual
// reconstruction shape (n in the tens, values in the thousands) is one
// DenseTopNOffer pass; a near-full selection (past kHeapSelectRatio)
// partitions an index array with nth_element instead.
void SelectTopNIndicesDense(const double* values, int64_t num_values,
                            int64_t n, std::vector<int64_t>* out);

}  // namespace privrec::kernels

#endif  // PRIVREC_KERNELS_SELECT_H_
