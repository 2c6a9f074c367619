// Hybrid social + item-CF recommendation — the paper's Section 2.2
// deferral ("although it can be beneficial to use both social and
// non-social data ... we plan to study such hybrid recommenders in a
// future work"), built from the two DP components this library already
// provides:
//   - the social "Cluster" mechanism (Algorithm 1) at ε_social, and
//   - the non-social ItemCfRecommender (McSherry-Mironov style) at ε_cf.
//
// Both components read the SAME preference edges, so by sequential
// composition (Theorem 2) the hybrid is (ε_social + ε_cf)-DP.
//
// Blending uses reciprocal-rank fusion over each component's top
// max(4·top_n, 100) candidates:
//   score(i) = α / (k0 + rank_social(i)) + (1-α) / (k0 + rank_cf(i)),
// with the standard RRF k0 = 60. The fusion is scale-free (the two
// components' utilities are not commensurable) and pure post-processing
// of the two sanitized rankings.

#ifndef PRIVREC_CORE_HYBRID_RECOMMENDER_H_
#define PRIVREC_CORE_HYBRID_RECOMMENDER_H_

#include <cstdint>
#include <memory>

#include "community/partition.h"
#include "core/item_cf_recommender.h"
#include "core/recommender.h"

namespace privrec::core {

struct HybridRecommenderOptions {
  // Component budgets; the hybrid's guarantee is their sum.
  double epsilon_social = 0.5;
  double epsilon_cf = 0.5;
  // Blend weight on the social component (1 = pure social, 0 = pure CF).
  double alpha = 0.5;
  uint64_t seed = 800;
};

class HybridRecommender final : public Recommender {
 public:
  HybridRecommender(const RecommenderContext& context,
                    community::Partition partition,
                    const HybridRecommenderOptions& options);

  std::string Name() const override { return "Hybrid"; }

  std::vector<RecommendationList> Recommend(
      const std::vector<graph::NodeId>& users, int64_t top_n) override;

 private:
  HybridRecommenderOptions options_;
  std::unique_ptr<Recommender> social_;
  ItemCfRecommender cf_;
};

}  // namespace privrec::core

#endif  // PRIVREC_CORE_HYBRID_RECOMMENDER_H_
