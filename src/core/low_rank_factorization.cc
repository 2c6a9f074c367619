#include "core/low_rank_factorization.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "la/svd.h"

namespace privrec::core {

LowRankFactorization::LowRankFactorization(
    const RecommenderContext& context,
    const LowRankFactorizationOptions& options) {
  context.CheckValid();
  PRIVREC_CHECK(options.target_rank >= 1);

  const graph::NodeId n = context.social->num_nodes();
  // Materialize the dense workload W[u][v] = sim(u, v).
  la::DenseMatrix w(n, n);
  for (graph::NodeId u = 0; u < n; ++u) {
    for (const similarity::SimilarityEntry& e : context.workload->Row(u)) {
      w(u, e.user) = e.score;
    }
  }

  la::SvdOptions svd_options;
  svd_options.rank = std::min<int64_t>(options.target_rank, n);
  svd_options.seed = options.seed ^ 0x5fd1;
  la::SvdResult svd = la::RandomizedSvd(w, svd_options);
  rank_ = static_cast<int64_t>(svd.singular_values.size());

  // B = U_r, L = diag(sigma) V_r^T.
  b_ = std::move(svd.u);
  l_ = std::move(svd.vt);
  for (int64_t k = 0; k < rank_; ++k) {
    double sigma = svd.singular_values[static_cast<size_t>(k)];
    for (graph::NodeId v = 0; v < n; ++v) {
      l_(k, v) *= sigma;
    }
  }
  // One edge toggles coordinate v of D_i by at most w_max, shifting L*D_i
  // by w_max times column v of L.
  noise_sensitivity_ =
      l_.MaxColumnL1Norm() * context.preferences->max_weight();

  // Factorization quality, for reporting: ||W - BL||_F / ||W||_F.
  la::DenseMatrix approx = b_.Multiply(l_);
  double num = 0.0;
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v = 0; v < n; ++v) {
      double d = w(u, v) - approx(u, v);
      num += d * d;
    }
  }
  double den = w.FrobeniusNorm();
  factorization_error_ = den > 0.0 ? std::sqrt(num) / den : 0.0;
}

}  // namespace privrec::core
