#include "eval/ndcg.h"

#include <algorithm>
#include <cmath>

namespace privrec::eval {

double RankDiscount(int64_t position) {
  PRIVREC_DCHECK(position >= 1);
  return std::max(1.0, std::log2(static_cast<double>(position)) + 1.0);
}

double Dcg(const core::RecommendationList& list,
           const std::function<double(graph::ItemId)>& ideal_utility) {
  double acc = 0.0;
  for (size_t k = 0; k < list.size(); ++k) {
    acc += ideal_utility(list[k].item) /
           RankDiscount(static_cast<int64_t>(k) + 1);
  }
  return acc;
}

double NdcgFromDcg(double dcg, double ideal_dcg) {
  if (ideal_dcg <= 0.0) return 1.0;
  return dcg / ideal_dcg;
}

}  // namespace privrec::eval
