// Name-based recommender construction: one entry point that maps the
// mechanism names used throughout the paper ("Exact", "Cluster", "NOU",
// "NOE", "GS", "LRM") to configured instances. Keeps bench/example/CLI
// code free of per-mechanism wiring.
//
// Every mechanism has one implementation: its serve path
// (serving::MakeServeRecommender). The two entry points differ only in
// where the model comes from:
//   - MakeRecommender builds it in RAM from a RecommenderContext
//     (artifact::ModelArtifactBuilder → ServingEngine::FromModel), and
//   - MakeArtifactRecommender serves an engine the caller already holds,
//     typically a loaded .pvram.

#ifndef PRIVREC_CORE_RECOMMENDER_FACTORY_H_
#define PRIVREC_CORE_RECOMMENDER_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "artifact/serving.h"
#include "common/status.h"
#include "community/partition.h"
#include "core/recommender.h"

namespace privrec::core {

struct RecommenderSpec {
  // One of MechanismNames(). Case-sensitive.
  std::string mechanism = "Cluster";
  // Ignored by "Exact". "Cluster" publishes at this ε; the reference
  // baselines spend it on the noise of each call.
  double epsilon = 1.0;
  uint64_t seed = 1;
  // Required by "Cluster" (must cover the social graph's users); the
  // recommender keeps its own copy. The baselines never serve the
  // publication and build with Partition::Whole when this is null.
  const community::Partition* partition = nullptr;
  // GS group size; LRM target rank.
  int64_t gs_group_size = 128;
  int64_t lrm_target_rank = 200;
  // MakeArtifactRecommender only: when nonzero the engine's model must
  // carry this dataset fingerprint (kGraphMismatch otherwise).
  uint64_t expected_graph_hash = 0;
};

// All constructible mechanism names, paper order.
const std::vector<std::string>& MechanismNames();

// Builds the requested mechanism over the context, whose graphs and
// workload must outlive the recommender. "Cluster" builds and serves a
// fresh publication on every Recommend call, so the k-th call of a
// recommender serves the k-th release of (epsilon, seed). The other
// mechanisms build once and draw their noise per call on the serve side.
// InvalidArgument for an unknown name, a bad ε or LRM rank, or a missing
// or mismatched partition — all before anything is built.
Result<std::unique_ptr<Recommender>> MakeRecommender(
    const RecommenderContext& context, const RecommenderSpec& spec);

// Serves `spec.mechanism` from a loaded engine, which the recommender
// co-owns. May fail the compatibility gates (kGraphMismatch /
// kProvenanceMismatch / kFailedPrecondition — see
// serving::MakeServeRecommender).
Result<std::unique_ptr<Recommender>> MakeArtifactRecommender(
    std::shared_ptr<const serving::ServingEngine> engine,
    const RecommenderSpec& spec);

}  // namespace privrec::core

#endif  // PRIVREC_CORE_RECOMMENDER_FACTORY_H_
