#include "kernels/select.h"

#include <numeric>

namespace privrec::kernels {

void SelectTopNIndicesDense(const double* values, int64_t num_values,
                            int64_t n, std::vector<int64_t>* out) {
  out->clear();
  const int64_t keep = std::min<int64_t>(n, num_values);
  if (keep <= 0) return;

  // Same crossover as SelectTopNInPlace (see kHeapSelectRatio): the
  // reconstruction shape takes the one-pass dense heap, a near-full
  // selection keeps the linear partition.
  if (keep * kHeapSelectRatio <= num_values) {
    struct IndexedValue {
      int64_t item;
      double utility;
    };
    std::vector<IndexedValue> heap;
    heap.reserve(static_cast<size_t>(keep));
    DenseTopNOffer(values, 0, num_values, keep, &heap);
    DenseTopNFinish(&heap);
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

}  // namespace privrec::kernels
