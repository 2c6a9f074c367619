// Shared helpers for the experiment-reproduction bench binaries.

#ifndef PRIVREC_BENCH_BENCH_COMMON_H_
#define PRIVREC_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "artifact/builder.h"
#include "artifact/serving.h"
#include "common/driver_flags.h"
#include "common/flags.h"
#include "common/macros.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/string_util.h"
#include "community/partition.h"
#include "core/recommender_factory.h"
#include "dp/mechanisms.h"
#include "eval/experiment.h"
#include "graph/social_graph.h"
#include "similarity/adamic_adar.h"
#include "similarity/common_neighbors.h"
#include "similarity/graph_distance.h"
#include "similarity/katz.h"

namespace privrec::bench {

// The paper's four instantiations, in its citation order.
inline const std::vector<std::string>& MeasureNames() {
  static const std::vector<std::string> kNames = {"CN", "GD", "AA", "KZ"};
  return kNames;
}

inline std::unique_ptr<similarity::SimilarityMeasure> MakeMeasure(
    const std::string& name) {
  if (name == "CN") return std::make_unique<similarity::CommonNeighbors>();
  if (name == "GD") return std::make_unique<similarity::GraphDistance>(2);
  if (name == "AA") return std::make_unique<similarity::AdamicAdar>();
  if (name == "KZ") return std::make_unique<similarity::Katz>(3, 0.05);
  PRIVREC_CHECK_MSG(false, "unknown measure");
  return nullptr;
}

inline std::string EpsilonLabel(double epsilon) {
  if (epsilon == dp::kEpsilonInfinity) return "inf";
  return FormatDouble(epsilon, 2);
}

// The evaluation grid of Section 6.3.
inline std::vector<double> PaperEpsilons() {
  return {dp::kEpsilonInfinity, 1.0, 0.6, 0.1, 0.05, 0.01};
}

inline std::vector<graph::NodeId> AllUsers(graph::NodeId n) {
  std::vector<graph::NodeId> users(static_cast<size_t>(n));
  for (graph::NodeId u = 0; u < n; ++u) users[static_cast<size_t>(u)] = u;
  return users;
}

// Uniform random user sample without replacement (the paper evaluates a
// random 10,000-user subset of Flixster).
inline std::vector<graph::NodeId> SampleUsers(graph::NodeId n,
                                              int64_t count,
                                              uint64_t seed) {
  if (count >= n) return AllUsers(n);
  Rng rng(seed);
  std::vector<graph::NodeId> users;
  for (uint64_t raw :
       rng.SampleWithoutReplacement(static_cast<uint64_t>(n),
                                    static_cast<uint64_t>(count))) {
    users.push_back(static_cast<graph::NodeId>(raw));
  }
  return users;
}

// The Cluster mechanism through core::MakeRecommender: every Recommend
// call publishes a fresh release at (epsilon, seed) and serves it.
inline std::unique_ptr<core::Recommender> MakeCluster(
    const core::RecommenderContext& context,
    const community::Partition& partition, double epsilon, uint64_t seed) {
  core::RecommenderSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = epsilon;
  spec.seed = seed;
  spec.partition = &partition;
  auto rec = core::MakeRecommender(context, spec);
  PRIVREC_CHECK_MSG(rec.ok(), rec.status().message().c_str());
  return std::move(*rec);
}

// Cluster-mechanism factory for the NDCG sweeps: every (ε, trial) cell
// re-runs the A_w publication via one shared ModelArtifactBuilder (so the
// partition, workload and dataset fingerprint are prepared once) and
// serves from the resulting in-memory artifact. `table_f32` adds the
// quantized mirror of the release, which the serve path then reads.
inline eval::RecommenderFactory ClusterFactory(
    const core::RecommenderContext& context,
    const community::Partition& partition, bool table_f32 = false) {
  auto builder = std::make_shared<artifact::ModelArtifactBuilder>(
      context.social, context.preferences);
  builder->SetPartition(&partition);
  builder->SetWorkload(context.workload);
  return [builder, table_f32](
             double eps, uint64_t seed) -> std::unique_ptr<core::Recommender> {
    artifact::BuildOptions options;
    options.epsilon = eps;
    options.seed = seed;
    options.include_reference_sections = false;
    options.table_f32 = table_f32;
    auto model = builder->Build(options);
    PRIVREC_CHECK_MSG(model.ok(), "artifact build failed");
    auto engine = serving::ServingEngine::FromModel(std::move(*model));
    PRIVREC_CHECK_MSG(engine.ok(), "artifact rejected by serving engine");
    core::RecommenderSpec spec;
    spec.mechanism = "Cluster";
    spec.epsilon = eps;
    spec.seed = seed;
    auto rec = core::MakeArtifactRecommender(
        std::make_shared<const serving::ServingEngine>(std::move(*engine)),
        spec);
    PRIVREC_CHECK_MSG(rec.ok(), "artifact-backed recommender rejected");
    return std::move(*rec);
  };
}

}  // namespace privrec::bench

#endif  // PRIVREC_BENCH_BENCH_COMMON_H_
