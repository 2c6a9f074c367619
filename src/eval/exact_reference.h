// ExactReference: the non-private recommender's answers, precomputed once
// per (dataset, measure) and reused across every ε / trial — the ideal
// utilities μ_u^i and the ideal DCG@N denominators of Equation 2 (the DCG
// of the ideal top-N list R_u^N).

#ifndef PRIVREC_EVAL_EXACT_REFERENCE_H_
#define PRIVREC_EVAL_EXACT_REFERENCE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/recommendation.h"
#include "core/recommender.h"

namespace privrec::eval {

class ExactReference {
 public:
  // Precomputes rows and ideal DCGs for `users`, up to N = `max_n` (use
  // the largest N of the experiment).
  static ExactReference Compute(const core::RecommenderContext& context,
                                const std::vector<graph::NodeId>& users,
                                int64_t max_n);

  const std::vector<graph::NodeId>& users() const { return users_; }
  int64_t max_n() const { return max_n_; }

  // Ideal utility μ_u^i; 0 for items outside u's utility row. u must be
  // one of the precomputed users.
  double IdealUtility(graph::NodeId u, graph::ItemId i) const;

  // Ideal DCG@n (denominator of Equation 2).
  double IdealDcg(graph::NodeId u, int64_t n) const;

  // NDCG of a private list for u; N is the list's size.
  double Ndcg(graph::NodeId u,
              const core::RecommendationList& private_list) const;

  // Mean NDCG over aligned (users()[k], lists[k]) pairs — Equation 2's
  // average over U. `lists` must be parallel to the precomputed users.
  double MeanNdcg(const std::vector<core::RecommendationList>& lists) const;

 private:
  int64_t IndexOf(graph::NodeId u) const;

  std::vector<graph::NodeId> users_;
  std::unordered_map<graph::NodeId, int64_t> index_;
  int64_t max_n_ = 0;
  // Per user: sparse ideal utility row sorted by item id.
  std::vector<std::vector<std::pair<graph::ItemId, double>>> rows_;
  // Per user: prefix DCGs of the ideal list; ideal_dcg_[u][n] = DCG@n,
  // n in [0, max_n].
  std::vector<std::vector<double>> ideal_dcg_prefix_;
};

}  // namespace privrec::eval

#endif  // PRIVREC_EVAL_EXACT_REFERENCE_H_
