#include "core/hybrid_recommender.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/random.h"
#include "core/recommender_factory.h"

namespace privrec::core {

namespace {

// Rank-fusion smoothing constant (the standard RRF k).
constexpr double kRrfK = 60.0;
// Candidates taken from each component: max(top_n * multiple, 100).
constexpr int64_t kCandidateMultiple = 4;

}  // namespace

HybridRecommender::HybridRecommender(const RecommenderContext& context,
                                     community::Partition partition,
                                     const HybridRecommenderOptions& options)
    : options_(options),
      cf_(context, {.epsilon = options.epsilon_cf,
                    .seed = SplitMix64(options.seed ^ 0xCF00)}) {
  RecommenderSpec social;
  social.mechanism = "Cluster";
  social.epsilon = options.epsilon_social;
  social.seed = SplitMix64(options.seed ^ 0x50C1A1);
  social.partition = &partition;
  Result<std::unique_ptr<Recommender>> made =
      MakeRecommender(context, social);
  PRIVREC_CHECK_MSG(made.ok(), made.status().message().c_str());
  social_ = std::move(made).value();
  PRIVREC_CHECK(options_.alpha >= 0.0 && options_.alpha <= 1.0);
}

std::vector<RecommendationList> HybridRecommender::Recommend(
    const std::vector<graph::NodeId>& users, int64_t top_n) {
  const int64_t candidates =
      std::max<int64_t>(top_n * kCandidateMultiple, 100);
  std::vector<RecommendationList> social_lists =
      social_->Recommend(users, candidates);
  std::vector<RecommendationList> cf_lists =
      cf_.Recommend(users, candidates);

  std::vector<RecommendationList> out;
  out.reserve(users.size());
  std::unordered_map<graph::ItemId, double> fused;
  for (size_t k = 0; k < users.size(); ++k) {
    fused.clear();
    for (size_t p = 0; p < social_lists[k].size(); ++p) {
      fused[social_lists[k][p].item] +=
          options_.alpha / (kRrfK + static_cast<double>(p) + 1.0);
    }
    for (size_t p = 0; p < cf_lists[k].size(); ++p) {
      fused[cf_lists[k][p].item] +=
          (1.0 - options_.alpha) / (kRrfK + static_cast<double>(p) + 1.0);
    }
    std::vector<std::pair<graph::ItemId, double>> entries(fused.begin(),
                                                          fused.end());
    out.push_back(TopNFromSparse(std::move(entries), top_n));
  }
  return out;
}

}  // namespace privrec::core
