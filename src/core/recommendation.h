// Recommendation lists and top-N selection utilities shared by all
// recommenders.

#ifndef PRIVREC_CORE_RECOMMENDATION_H_
#define PRIVREC_CORE_RECOMMENDATION_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "graph/ids.h"
#include "kernels/select.h"

namespace privrec::core {

struct Recommendation {
  graph::ItemId item;
  // The (possibly noisy) utility the recommender ranked by.
  double utility;

  friend bool operator==(const Recommendation&,
                         const Recommendation&) = default;
};

// Ranked best-first; at most N entries.
using RecommendationList = std::vector<Recommendation>;

// Selects the top `n` entries of a dense utility vector, ranked by utility
// descending with item id as the deterministic tie-breaker.
RecommendationList TopNFromDense(std::span<const double> utilities,
                                 int64_t n);

// Same, from a sparse (item, utility) set; entries need not be sorted.
RecommendationList TopNFromSparse(
    std::vector<std::pair<graph::ItemId, double>> entries, int64_t n);

// Streaming top-N accumulator for mechanisms that produce utilities
// item-by-item (GS, LRM, and both phases of the Cluster reconstruction):
// keeps the best N of everything offered, in any item order, as long as
// no item is offered twice.
class TopNAccumulator {
 public:
  explicit TopNAccumulator(int64_t n) : n_(n) { PRIVREC_CHECK(n >= 1); }

  // Always inlined, so the reconstruction's (pinned) offer loop holds it.
  [[gnu::always_inline]] void Offer(graph::ItemId item, double utility) {
    const Recommendation candidate{item, utility};
    if (static_cast<int64_t>(heap_.size()) < n_) {
      heap_.push_back(candidate);
      std::push_heap(heap_.begin(), heap_.end(), Better);
      return;
    }
    if (Better(candidate, heap_.front())) {
      kernels::ReplaceWorst(heap_.data(), heap_.size(), candidate);
    }
  }

  // The worst kept utility once N entries are kept, -infinity before:
  // an offer below it cannot enter.
  double WorstKept() const {
    return static_cast<int64_t>(heap_.size()) < n_
               ? -std::numeric_limits<double>::infinity()
               : heap_.front().utility;
  }

  // Extracts the ranked list (descending utility, item id tie-break) and
  // resets the accumulator.
  RecommendationList Take();

 private:
  // True if a beats b in ranking order (the shared kernel comparator).
  static bool Better(const Recommendation& a, const Recommendation& b) {
    return kernels::RankOrderBetter{}(a, b);
  }

  int64_t n_;
  // Heap with Better as its "less": heap_[0] is the worst kept entry.
  std::vector<Recommendation> heap_;
};

}  // namespace privrec::core

#endif  // PRIVREC_CORE_RECOMMENDATION_H_
