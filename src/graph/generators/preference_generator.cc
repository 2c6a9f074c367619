#include "graph/generators/preference_generator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/random.h"
#include "obs/trace.h"

namespace privrec::graph {

namespace {

// A lazily materialized random permutation of [0, n): community popularity
// orderings only ever touch the head of the permutation (Zipf mass is
// concentrated), so Fisher-Yates runs in place over a dense slot array only
// as far as the deepest rank asked for. Step k swaps slot k with slot
// k + UniformInt(n - k); a slot holding -1 still holds its own index, so the
// array starts as one fill rather than an iota.
class LazyPermutation {
 public:
  LazyPermutation(int64_t n, Rng rng)
      : slots_(static_cast<size_t>(n), -1), rng_(rng) {}

  int64_t Get(int64_t rank) {
    const int64_t n = static_cast<int64_t>(slots_.size());
    PRIVREC_DCHECK(rank >= 0 && rank < n);
    for (; drawn_ <= rank; ++drawn_) {
      const int64_t pick = drawn_ + static_cast<int64_t>(rng_.UniformInt(
                                        static_cast<uint64_t>(n - drawn_)));
      const int32_t head = ValueAt(drawn_);
      slots_[static_cast<size_t>(drawn_)] = ValueAt(pick);
      slots_[static_cast<size_t>(pick)] = head;
    }
    return slots_[static_cast<size_t>(rank)];
  }

 private:
  int32_t ValueAt(int64_t slot) const {
    const int32_t value = slots_[static_cast<size_t>(slot)];
    return value < 0 ? static_cast<int32_t>(slot) : value;
  }

  std::vector<int32_t> slots_;
  int64_t drawn_ = 0;
  Rng rng_;
};

}  // namespace

PreferenceGraph GeneratePreferences(
    const std::vector<int64_t>& community_of,
    const PreferenceGeneratorOptions& options) {
  PRIVREC_SPAN("graph.preferences");
  PRIVREC_CHECK(options.num_items > 0);
  // LazyPermutation stores item ids in int32_t slots.
  PRIVREC_CHECK(options.num_items <= std::numeric_limits<int32_t>::max());
  PRIVREC_CHECK(options.homophily >= 0.0 && options.homophily <= 1.0);
  PRIVREC_CHECK(options.personal_taste >= 0.0 &&
                options.personal_taste <= 1.0);
  const NodeId num_users = static_cast<NodeId>(community_of.size());
  Rng rng(options.seed);

  int64_t num_communities = 0;
  for (int64_t c : community_of) {
    PRIVREC_CHECK(c >= 0);
    num_communities = std::max(num_communities, c + 1);
  }

  // One lazily-built popularity permutation per community. The global
  // ordering is the identity (item 0 is globally most popular).
  std::vector<LazyPermutation> community_order;
  community_order.reserve(static_cast<size_t>(num_communities));
  for (int64_t c = 0; c < num_communities; ++c) {
    community_order.emplace_back(options.num_items,
                                 rng.Fork(0x9000 + static_cast<uint64_t>(c)));
  }

  std::vector<std::pair<NodeId, ItemId>> edges;
  edges.reserve(static_cast<size_t>(
      static_cast<double>(num_users) * options.mean_prefs_per_user));
  std::unordered_set<ItemId> chosen;
  for (NodeId u = 0; u < num_users; ++u) {
    double want = rng.Normal(options.mean_prefs_per_user,
                             options.stddev_prefs_per_user);
    int64_t k = std::clamp<int64_t>(static_cast<int64_t>(std::llround(want)),
                                    1, options.num_items);
    chosen.clear();
    int64_t c = community_of[static_cast<size_t>(u)];
    // The user's private taste ordering (discarded after this user).
    LazyPermutation personal(options.num_items,
                             rng.Fork(0xA000 + static_cast<uint64_t>(u)));
    // Rejection loop with a guard: at most 50x oversampling before falling
    // back to sequential fill (only reachable for k close to num_items).
    int64_t attempts = 0;
    const int64_t max_attempts = 50 * k + 100;
    const int64_t catalog =
        options.community_catalog_size > 0
            ? std::min<int64_t>(options.community_catalog_size,
                                options.num_items)
            : options.num_items;
    while (static_cast<int64_t>(chosen.size()) < k &&
           attempts < max_attempts) {
      ++attempts;
      ItemId item;
      if (rng.Bernoulli(options.personal_taste)) {
        item = personal.Get(static_cast<int64_t>(
            rng.Zipf(static_cast<uint64_t>(options.num_items),
                     options.popularity_skew)));
      } else if (rng.Bernoulli(options.homophily)) {
        item = community_order[static_cast<size_t>(c)].Get(
            static_cast<int64_t>(rng.Zipf(static_cast<uint64_t>(catalog),
                                          options.popularity_skew)));
      } else {
        // Global ordering = identity.
        item = static_cast<int64_t>(
            rng.Zipf(static_cast<uint64_t>(options.num_items),
                     options.popularity_skew));
      }
      chosen.insert(item);
    }
    for (ItemId i = 0; static_cast<int64_t>(chosen.size()) < k &&
                       i < options.num_items;
         ++i) {
      chosen.insert(i);
    }
    for (ItemId i : chosen) edges.emplace_back(u, i);
  }
  if (options.max_rating <= 0) {
    return PreferenceGraph::FromEdges(num_users, options.num_items, edges);
  }
  // Weighted variant: ratings skewed high, as in real rating datasets.
  std::vector<PreferenceEdge> weighted;
  weighted.reserve(edges.size());
  for (auto [u, i] : edges) {
    int64_t a = rng.UniformInt(1, options.max_rating);
    int64_t b = rng.UniformInt(1, options.max_rating);
    weighted.push_back({u, i, static_cast<double>(std::max(a, b))});
  }
  return PreferenceGraph::FromWeightedEdges(num_users, options.num_items,
                                            weighted);
}

}  // namespace privrec::graph
