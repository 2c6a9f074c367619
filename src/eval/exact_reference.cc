#include "eval/exact_reference.h"

#include <algorithm>

#include "common/parallel.h"
#include "core/exact_recommender.h"
#include "eval/ndcg.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace privrec::eval {

ExactReference ExactReference::Compute(
    const core::RecommenderContext& context,
    const std::vector<graph::NodeId>& users, int64_t max_n) {
  PRIVREC_SPAN("eval.exact_reference");
  PRIVREC_CHECK(max_n >= 1);
  ExactReference ref;
  ref.users_ = users;
  ref.max_n_ = max_n;
  ref.rows_.resize(users.size());
  ref.ideal_dcg_prefix_.resize(users.size());
  for (size_t k = 0; k < users.size(); ++k) {
    ref.index_[users[k]] = static_cast<int64_t>(k);
  }

  // Per-user rows and prefix DCGs are independent; each slot is written
  // exactly once by the chunk that owns it.
  Status run = ParallelFor(
      static_cast<int64_t>(users.size()),
      [&](int64_t, int64_t begin, int64_t end) {
        thread_local similarity::DenseScratch scratch;
        for (int64_t k = begin; k < end; ++k) {
          graph::NodeId u = users[static_cast<size_t>(k)];
          auto row =
              core::ExactRecommender::ComputeUtilityRow(context, u, &scratch);
          core::RecommendationList ideal = core::TopNFromSparse(row, max_n);
          std::vector<double> prefix(static_cast<size_t>(max_n) + 1, 0.0);
          for (size_t p = 0; p < ideal.size(); ++p) {
            prefix[p + 1] =
                prefix[p] +
                ideal[p].utility / RankDiscount(static_cast<int64_t>(p) + 1);
          }
          // Lists shorter than max_n extend with zero gain.
          for (size_t p = ideal.size(); p < static_cast<size_t>(max_n);
               ++p) {
            prefix[p + 1] = prefix[p];
          }
          ref.rows_[static_cast<size_t>(k)] = std::move(row);
          ref.ideal_dcg_prefix_[static_cast<size_t>(k)] = std::move(prefix);
        }
      });
  PRIVREC_CHECK_MSG(run.ok(), run.message().c_str());
  return ref;
}

int64_t ExactReference::IndexOf(graph::NodeId u) const {
  auto it = index_.find(u);
  PRIVREC_CHECK_MSG(it != index_.end(), "user not precomputed");
  return it->second;
}

double ExactReference::IdealUtility(graph::NodeId u, graph::ItemId i) const {
  const auto& row = rows_[static_cast<size_t>(IndexOf(u))];
  auto it = std::lower_bound(
      row.begin(), row.end(), i,
      [](const std::pair<graph::ItemId, double>& e, graph::ItemId key) {
        return e.first < key;
      });
  if (it == row.end() || it->first != i) return 0.0;
  return it->second;
}

double ExactReference::IdealDcg(graph::NodeId u, int64_t n) const {
  PRIVREC_CHECK(n >= 0 && n <= max_n_);
  return ideal_dcg_prefix_[static_cast<size_t>(IndexOf(u))]
                          [static_cast<size_t>(n)];
}

double ExactReference::Ndcg(
    graph::NodeId u, const core::RecommendationList& private_list) const {
  int64_t idx = IndexOf(u);
  const auto& row = rows_[static_cast<size_t>(idx)];
  double dcg = 0.0;
  for (size_t p = 0; p < private_list.size(); ++p) {
    graph::ItemId item = private_list[p].item;
    auto it = std::lower_bound(
        row.begin(), row.end(), item,
        [](const std::pair<graph::ItemId, double>& e, graph::ItemId key) {
          return e.first < key;
        });
    double gain = (it != row.end() && it->first == item) ? it->second : 0.0;
    dcg += gain / RankDiscount(static_cast<int64_t>(p) + 1);
  }
  int64_t n = std::min<int64_t>(static_cast<int64_t>(private_list.size()),
                                max_n_);
  return NdcgFromDcg(dcg, ideal_dcg_prefix_[static_cast<size_t>(idx)]
                                           [static_cast<size_t>(n)]);
}

double ExactReference::MeanNdcg(
    const std::vector<core::RecommendationList>& lists) const {
  PRIVREC_SPAN("eval.ndcg");
  PRIVREC_CHECK(lists.size() == users_.size());
  if (lists.empty()) return 0.0;
  static obs::Counter& evaluations =
      obs::GetCounter("privrec.eval.ndcg_evaluations");
  static obs::Counter& lists_scored =
      obs::GetCounter("privrec.eval.lists_scored");
  evaluations.Increment();
  lists_scored.Add(static_cast<int64_t>(lists.size()));
  // Ordered chunked sum: same value at every thread count (Equation 2's
  // average over U is a fixed summation tree; see common/parallel.h).
  double acc = ParallelSum(static_cast<int64_t>(lists.size()), [&](int64_t k) {
    return Ndcg(users_[static_cast<size_t>(k)], lists[static_cast<size_t>(k)]);
  });
  return acc / static_cast<double>(lists.size());
}

}  // namespace privrec::eval
