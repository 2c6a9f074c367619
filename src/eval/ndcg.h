// NDCG@N (Section 2.4, Equation 2).
//
// DCG(X, u) = Σ_{i ∈ X} μ_u^i / max(1, log2 p(i) + 1), with p(i) the
// 1-based rank of i in X and μ_u^i the IDEAL utility (computed by the
// non-private recommender) — the private list is scored by where it placed
// the truly useful items.
//
// Edge case: when the user's ideal DCG is 0 (no item has positive
// utility), every ranking is equally perfect and NDCG is defined as 1.0.

#ifndef PRIVREC_EVAL_NDCG_H_
#define PRIVREC_EVAL_NDCG_H_

#include <cstdint>
#include <functional>

#include "core/recommendation.h"

namespace privrec::eval {

// The rank discount max(1, log2(p) + 1) for 1-based position p.
double RankDiscount(int64_t position);

// DCG of `list` where each item's gain is looked up through
// `ideal_utility` (return 0 for items with no true utility).
double Dcg(const core::RecommendationList& list,
           const std::function<double(graph::ItemId)>& ideal_utility);

// NDCG = dcg / ideal_dcg with the 0/0 -> 1 convention.
double NdcgFromDcg(double dcg, double ideal_dcg);

}  // namespace privrec::eval

#endif  // PRIVREC_EVAL_NDCG_H_
