// LowRankFactorization: the build half of the Low-Rank Mechanism (Yuan et
// al., PVLDB'12) adapted to the social recommendation workload, following
// Section 6.4 of the paper.
//
// The |U| x |U| similarity workload W is factored W ~= B L with
// r = min(target_rank, |U|); per item i, the mechanism releases
//   ŷ_i = B (L D_i + Lap(Δ_L / ε)^r),
// where D_i is the 0/1 preference indicator column of item i and
// Δ_L = max column L1 norm of L — one preference edge toggles one
// coordinate of D_i and hence shifts L D_i by one column of L.
//
// This class computes B, L and Δ_L once; artifact::ModelArtifactBuilder
// persists them (include_lowrank), and the per-item noisy release runs on
// the serve side ("LRM" in serving::MakeServeRecommender).
//
// Substitution note (see DESIGN.md): the factorization is a truncated
// randomized SVD (B = U_r, L = Σ_r V_rᵀ) rather than the ADMM optimizer of
// [34]. The paper's finding for LRM here is negative — W has near-full
// rank, so no low-rank strategy can represent it accurately — and that
// failure mode is exactly reproduced by the SVD strategy.

#ifndef PRIVREC_CORE_LOW_RANK_FACTORIZATION_H_
#define PRIVREC_CORE_LOW_RANK_FACTORIZATION_H_

#include <cstdint>

#include "core/recommender.h"
#include "la/dense_matrix.h"

namespace privrec::core {

struct LowRankFactorizationOptions {
  // Factorization rank; clamped to |U|. The paper sets r = rank(W) (near
  // |U| in practice); 400 keeps the dense algebra tractable while leaving
  // the high-rank failure mode intact.
  int64_t target_rank = 400;
  uint64_t seed = 500;
};

class LowRankFactorization {
 public:
  // Factors the context's workload (the seed drives the randomized SVD).
  LowRankFactorization(const RecommenderContext& context,
                       const LowRankFactorizationOptions& options);

  double noise_sensitivity() const { return noise_sensitivity_; }
  int64_t rank() const { return rank_; }
  // Relative Frobenius error ||W - BL|| / ||W|| of the factorization.
  double factorization_error() const { return factorization_error_; }

  // The factor matrices (B is |U| x r, L is r x |U|), which the artifact
  // builder serializes; the serve side replays the release from these
  // factors alone.
  const la::DenseMatrix& b() const { return b_; }
  const la::DenseMatrix& l() const { return l_; }

 private:
  la::DenseMatrix b_;  // |U| x r
  la::DenseMatrix l_;  // r x |U|
  int64_t rank_ = 0;
  double noise_sensitivity_ = 0.0;
  double factorization_error_ = 0.0;
};

}  // namespace privrec::core

#endif  // PRIVREC_CORE_LOW_RANK_FACTORIZATION_H_
