// ModelArtifactBuilder: the offline half of the build/serve split.
//
// Runs the Fit() phase of every mechanism — createClusters on the public
// social graph, similarity-workload materialization, the ε-DP A_w
// publication, and optionally the LRM factorization — and assembles the
// result into a serving::ArtifactModel ready for SaveShardedArtifact.
//
// This is the ONLY place in the two-phase pipeline that touches the
// private PreferenceGraph; everything downstream of the returned model is
// post-processing. Repeated Build() calls with the same (epsilon, seed)
// reuse one internal publisher whose invocation counter advances per call,
// so the k-th build releases the k-th table of that (epsilon, seed) —
// which is how core::MakeRecommender's "Cluster" draws fresh noise on
// every Recommend call, and what the round-trip bit-identity tests and
// the repeated-trial benches rely on.
//
// The builder sits in privrec_core (its header keeps this path): the
// factory builds with it, and it builds with core's publication code.

#ifndef PRIVREC_ARTIFACT_BUILDER_H_
#define PRIVREC_ARTIFACT_BUILDER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "artifact/model.h"
#include "common/status.h"
#include "community/louvain.h"
#include "community/partition.h"
#include "core/cluster_publisher.h"
#include "core/low_rank_factorization.h"
#include "graph/preference_graph.h"
#include "graph/social_graph.h"
#include "similarity/workload.h"

namespace privrec::artifact {

struct BuildOptions {
  // Privacy parameter of the A_w publication (dp::kEpsilonInfinity for the
  // paper's noiseless reference runs) and its RNG seed.
  double epsilon = 1.0;
  uint64_t seed = 100;
  // createClusters configuration when no partition was injected.
  community::LouvainOptions louvain{};
  // Persist the raw preference CSR so the reference baselines
  // (Exact/NOU/NOE/GS) and LRM can serve from the artifact. A
  // production-shaped artifact should turn this off: the sanitized sections
  // alone serve the paper's mechanism.
  bool include_reference_sections = true;
  // Also emit the f32-quantized mirror of the release (the kNoisyRowsF32
  // shard sections once saved).
  // Pure post-processing of the sanitized table (no extra privacy cost);
  // the serve path prefers it for row accumulation when present.
  bool table_f32 = false;
  // Additionally run the LRM factorization and persist B/L.
  bool include_lowrank = false;
  int64_t lrm_target_rank = 200;
  uint64_t lrm_seed = 500;
  // BudgetLedger entry id recorded in the provenance section ("" when the
  // release is not ledgered).
  std::string ledger_id{};
};

class ModelArtifactBuilder {
 public:
  // Both graphs must outlive the builder.
  ModelArtifactBuilder(const graph::SocialGraph* social,
                       const graph::PreferenceGraph* preferences);

  // Inject a precomputed partition / workload (must outlive the builder);
  // otherwise Build computes and caches its own (the workload with common
  // neighbors, the paper's CN).
  void SetPartition(const community::Partition* partition);
  void SetWorkload(const similarity::SimilarityWorkload* workload);

  // Runs the build phase and returns the assembled model. Fresh noise per
  // call (see the class comment); everything else is cached across calls.
  Result<serving::ArtifactModel> Build(const BuildOptions& options);

  // The dataset fingerprint stamped into every model this builder emits —
  // what a caller passes as ServeSpec::expected_graph_hash.
  uint64_t graph_hash();

 private:
  const community::Partition& EnsurePartition(const BuildOptions& options);
  const similarity::SimilarityWorkload& EnsureWorkload();

  const graph::SocialGraph* social_;
  const graph::PreferenceGraph* preferences_;
  const community::Partition* partition_ = nullptr;
  const similarity::SimilarityWorkload* workload_ = nullptr;
  std::optional<community::Partition> owned_partition_;
  std::optional<similarity::SimilarityWorkload> owned_workload_;
  std::optional<uint64_t> graph_hash_;
  // Cached A_w publisher, keyed on the options that shape its noise.
  std::unique_ptr<core::ClusterPublisher> publisher_;
  double publisher_epsilon_ = 0.0;
  uint64_t publisher_seed_ = 0;
  // Cached LRM factorization (the SVD is the expensive part).
  std::unique_ptr<core::LowRankFactorization> lowrank_;
  int64_t lowrank_rank_ = 0;
  uint64_t lowrank_seed_ = 0;
};

}  // namespace privrec::artifact

#endif  // PRIVREC_ARTIFACT_BUILDER_H_
