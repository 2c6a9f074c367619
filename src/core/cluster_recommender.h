// ClusterRecommender: the paper's privacy-preserving framework
// (Algorithm 1, Section 5).
//
// Pipeline (matching the three modules of the Theorem 4 proof):
//   1. createClusters(G_s): a disjoint user Partition derived from the
//      public social graph only (Louvain by default; any public-only
//      strategy preserves the guarantee).
//   2. A_w: for every (item, cluster) pair, release the noisy average edge
//      weight  ŵ_c^i = (Σ_{v∈c} w(v,i)) / |c| + Lap(1/(|c|·ε))  — the only
//      stage that reads the private preference graph. Parallel composition
//      across the disjoint clusters and disjoint per-item edge sets makes
//      the whole stage ε-DP.
//   3. A_R: reconstruct utility estimates
//      μ̂_u^i = Σ_c (Σ_{v∈sim(u)∩c} sim(u,v)) · ŵ_c^i  and emit per-user
//      top-N lists — pure post-processing.
//
// The class exposes the A_w output (NoisyClusterAverages) separately so
// tests can verify the DP guarantee empirically at the privacy boundary.
//
// Degradation semantics (see core/degradation.h): empty clusters release
// nothing (no 0/0 NaN), non-finite noisy values are sanitized to 0 and
// counted, and users with no similarity support fall back to the
// global-average utilities reconstructed from the SAME noisy release
// (post-processing — no extra ε). RecommendWithReport says which users
// degraded and why; Recommend() returns the same lists without the
// diagnostics. Fault point: cluster.noisy_averages (kNaN/kInf poisons the
// release, exercising the sanitizer).

#ifndef PRIVREC_CORE_CLUSTER_RECOMMENDER_H_
#define PRIVREC_CORE_CLUSTER_RECOMMENDER_H_

#include <cstdint>
#include <vector>

#include "community/partition.h"
#include "core/degradation.h"
#include "core/recommender.h"

namespace privrec::core {

struct ClusterRecommenderOptions {
  // Privacy parameter; dp::kEpsilonInfinity disables noise (isolating
  // approximation error, the paper's ε = ∞ runs).
  double epsilon = 1.0;
  uint64_t seed = 100;
};

// The full A_w output: the noisy table plus the sanitation diagnostics the
// reconstruction step needs. This is exactly what the artifact builder
// persists into the noisy rows of a .pvram artifact — serving needs
// nothing else from the private phase.
struct ClusterRelease {
  std::vector<double> values;  // row-major [cluster][item]
  // Per-cluster flag: a non-finite value in this cluster's row was
  // sanitized to 0.
  std::vector<uint8_t> sanitized;
  int64_t empty_clusters = 0;
  int64_t singleton_clusters = 0;
  int64_t nonfinite_sanitized = 0;
};

class ClusterRecommender final : public Recommender {
 public:
  // `partition` is the createClusters output; it must cover exactly the
  // social graph's node set and must be derived from public data only for
  // the DP guarantee to hold (not enforceable here — see the class
  // comment).
  ClusterRecommender(const RecommenderContext& context,
                     community::Partition partition,
                     const ClusterRecommenderOptions& options);

  std::string Name() const override { return "Cluster"; }

  std::vector<RecommendationList> Recommend(
      const std::vector<graph::NodeId>& users, int64_t top_n) override;

  // Recommend() plus per-user degradation diagnostics.
  RecommendedBatch RecommendWithReport(
      const std::vector<graph::NodeId>& users, int64_t top_n);

  // The A_w module in isolation: row-major [cluster][item] noisy average
  // weights, freshly sampled (and sanitized — non-finite values read as
  // 0). Exposed for DP boundary tests; Recommend() calls this internally
  // once per invocation.
  std::vector<double> ComputeNoisyClusterAverages();

  // The A_w module with its full diagnostics — the Fit() half of the
  // build/serve split. Each call draws fresh noise (advancing the
  // invocation counter exactly like Recommend does), so the k-th
  // ComputeRelease matches the release the k-th Recommend would have used.
  ClusterRelease ComputeRelease();

  const community::Partition& partition() const { return partition_; }

 private:
  RecommenderContext context_;
  community::Partition partition_;
  ClusterRecommenderOptions options_;
  uint64_t invocation_ = 0;
};

}  // namespace privrec::core

#endif  // PRIVREC_CORE_CLUSTER_RECOMMENDER_H_
