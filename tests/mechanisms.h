// Helpers for tests that construct mechanisms by name. Every mechanism has
// one implementation, its serve path: Make() reaches it through
// core::MakeRecommender, and BuildEngine() + Serve() expose the same
// in-memory route one step lower, for tests that read a batch's
// degradation diagnostics (serving::ServeRecommender::Recommend).

#ifndef PRIVREC_TESTS_MECHANISMS_H_
#define PRIVREC_TESTS_MECHANISMS_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "artifact/builder.h"
#include "artifact/serving.h"
#include "common/macros.h"
#include "community/partition.h"
#include "core/recommender.h"
#include "core/recommender_factory.h"

namespace privrec::test_mechanisms {

// core::MakeRecommender, aborting on a rejected spec.
inline std::unique_ptr<core::Recommender> Make(
    const core::RecommenderContext& context,
    const core::RecommenderSpec& spec) {
  auto made = core::MakeRecommender(context, spec);
  PRIVREC_CHECK_MSG(made.ok(), made.status().ToString().c_str());
  return std::move(made).value();
}

// The Cluster mechanism at (epsilon, seed) over `partition`.
inline std::unique_ptr<core::Recommender> MakeCluster(
    const core::RecommenderContext& context,
    const community::Partition& partition, double epsilon, uint64_t seed) {
  return Make(context, {.mechanism = "Cluster",
                        .epsilon = epsilon,
                        .seed = seed,
                        .partition = &partition});
}

// One in-memory build of `context` over `partition`, adopted by a serving
// engine: what core::MakeRecommender serves. The baselines need the
// reference sections; the Cluster mechanism does not.
inline serving::ServingEngine BuildEngine(
    const core::RecommenderContext& context,
    const community::Partition& partition, double epsilon, uint64_t seed,
    bool include_reference_sections) {
  artifact::ModelArtifactBuilder builder(context.social, context.preferences);
  builder.SetPartition(&partition);
  builder.SetWorkload(context.workload);
  artifact::BuildOptions options;
  options.epsilon = epsilon;
  options.seed = seed;
  options.include_reference_sections = include_reference_sections;
  auto model = builder.Build(options);
  PRIVREC_CHECK_MSG(model.ok(), model.status().ToString().c_str());
  auto engine = serving::ServingEngine::FromModel(std::move(model).value());
  PRIVREC_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  return std::move(engine).value();
}

// The serve recommender for `spec` over `engine`, which must outlive it.
inline std::unique_ptr<serving::ServeRecommender> Serve(
    const serving::ServingEngine& engine, const serving::ServeSpec& spec) {
  auto server = serving::MakeServeRecommender(&engine, spec);
  PRIVREC_CHECK_MSG(server.ok(), server.status().ToString().c_str());
  return std::move(server).value();
}

}  // namespace privrec::test_mechanisms

#endif  // PRIVREC_TESTS_MECHANISMS_H_
