#include "core/recommendation.h"

#include <algorithm>

#include "kernels/select.h"

namespace privrec::core {

// Rank order (utility desc, item asc) lives in kernels/select.h now so
// the dense kernel, the in-place helper, and the accumulator heap all
// share literally the same comparator.

RecommendationList TopNFromDense(std::span<const double> utilities,
                                 int64_t n) {
  thread_local std::vector<int64_t> top;
  kernels::SelectTopNIndicesDense(
      utilities.data(), static_cast<int64_t>(utilities.size()), n, &top);
  RecommendationList out;
  out.reserve(top.size());
  for (int64_t i : top) {
    out.push_back(
        {static_cast<graph::ItemId>(i), utilities[static_cast<size_t>(i)]});
  }
  return out;
}

RecommendationList TopNFromSparse(
    std::vector<std::pair<graph::ItemId, double>> entries, int64_t n) {
  RecommendationList all;
  all.reserve(entries.size());
  for (auto [item, utility] : entries) all.push_back({item, utility});
  kernels::SelectTopNInPlace(all, n);
  return all;
}

RecommendationList TopNAccumulator::Take() {
  RecommendationList out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), kernels::RankOrderBetter{});
  return out;
}

}  // namespace privrec::core
