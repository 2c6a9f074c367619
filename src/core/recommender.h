// The top-N social recommender interface (Definition 4) shared by the
// non-private reference, the paper's framework ("Cluster" from
// core::MakeRecommender) and every baseline mechanism.
//
// A RecommenderContext bundles the inputs: the public social graph, the
// private preference graph, and the precomputed similarity workload
// (sim(u, ·) rows). Contexts are non-owning; the caller keeps the graphs
// and workload alive for the recommender's lifetime.

#ifndef PRIVREC_CORE_RECOMMENDER_H_
#define PRIVREC_CORE_RECOMMENDER_H_

#include <string>
#include <vector>

#include "core/recommendation.h"
#include "graph/preference_graph.h"
#include "graph/social_graph.h"
#include "similarity/workload.h"

namespace privrec::core {

struct RecommenderContext {
  const graph::SocialGraph* social = nullptr;
  const graph::PreferenceGraph* preferences = nullptr;
  const similarity::SimilarityWorkload* workload = nullptr;

  void CheckValid() const {
    PRIVREC_CHECK(social != nullptr);
    PRIVREC_CHECK(preferences != nullptr);
    PRIVREC_CHECK(workload != nullptr);
    PRIVREC_CHECK(social->num_nodes() == preferences->num_users());
    PRIVREC_CHECK(workload->num_users() == social->num_nodes());
  }
};

class Recommender {
 public:
  virtual ~Recommender() = default;

  // Mechanism identifier for reports: "Exact", "Cluster", "NOU", "NOE",
  // "GS", "LRM".
  virtual std::string Name() const = 0;

  // Produces a ranked top-`top_n` list for each requested user. Randomized
  // mechanisms draw fresh noise on every call. The similarity rows of every
  // requested user must be present in the context workload.
  virtual std::vector<RecommendationList> Recommend(
      const std::vector<graph::NodeId>& users, int64_t top_n) = 0;

  // Convenience: a single user.
  RecommendationList RecommendOne(graph::NodeId user, int64_t top_n) {
    return Recommend({user}, top_n)[0];
  }
};

}  // namespace privrec::core

#endif  // PRIVREC_CORE_RECOMMENDER_H_
