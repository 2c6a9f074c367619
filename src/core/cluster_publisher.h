// ClusterPublisher: the ε-DP publication of the paper's framework
// (Algorithm 1, lines 1-7, Section 5).
//
// Algorithm 1 has three modules (matching the Theorem 4 proof):
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
// This class is module 2. artifact::ModelArtifactBuilder persists its
// release into the model's noisy table, and module 3 runs only on the
// serve side (serving::ReconstructTopN over a ServingEngine); the "Cluster"
// mechanism of core::MakeRecommender chains the three. The release is
// exposed on its own so tests can verify the DP guarantee empirically at
// the privacy boundary.
//
// Degradation semantics (see core/degradation.h): empty clusters release
// nothing (no 0/0 NaN), and non-finite noisy values are sanitized to 0,
// counted and flagged per cluster, so serving can mark the users whose
// utilities read a sanitized row. Fault point: cluster.noisy_averages
// (kNaN/kInf poisons the release, exercising the sanitizer).

#ifndef PRIVREC_CORE_CLUSTER_PUBLISHER_H_
#define PRIVREC_CORE_CLUSTER_PUBLISHER_H_

#include <cstdint>
#include <vector>

#include "community/partition.h"
#include "core/recommender.h"

namespace privrec::core {

struct ClusterPublisherOptions {
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

class ClusterPublisher {
 public:
  // `partition` is the createClusters output; it must cover exactly the
  // social graph's node set and must be derived from public data only for
  // the DP guarantee to hold (not enforceable here — see the file
  // comment).
  ClusterPublisher(const RecommenderContext& context,
                   community::Partition partition,
                   const ClusterPublisherOptions& options);

  // The A_w module with its full diagnostics. Each call draws fresh noise
  // and advances the invocation counter, so the k-th call of a publisher
  // releases the same table for a fixed (epsilon, seed) at any thread
  // count.
  ClusterRelease ComputeRelease();

  // ComputeRelease().values: row-major [cluster][item] noisy average
  // weights (sanitized — non-finite values read as 0). For DP boundary
  // tests.
  std::vector<double> ComputeNoisyClusterAverages();

  const community::Partition& partition() const { return partition_; }

 private:
  RecommenderContext context_;
  community::Partition partition_;
  ClusterPublisherOptions options_;
  uint64_t invocation_ = 0;
};

}  // namespace privrec::core

#endif  // PRIVREC_CORE_CLUSTER_PUBLISHER_H_
