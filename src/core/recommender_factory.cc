#include "core/recommender_factory.h"

#include <algorithm>
#include <utility>

#include "artifact/builder.h"
#include "dp/mechanisms.h"

namespace privrec::core {

namespace {

// Adapts a serving::ServeRecommender to the core::Recommender interface,
// co-owning the engine it serves from.
class ArtifactBackedRecommender : public Recommender {
 public:
  ArtifactBackedRecommender(
      std::shared_ptr<const serving::ServingEngine> engine,
      std::unique_ptr<serving::ServeRecommender> server)
      : engine_(std::move(engine)), server_(std::move(server)) {}

  std::string Name() const override { return server_->Name(); }

  std::vector<RecommendationList> Recommend(
      const std::vector<graph::NodeId>& users, int64_t top_n) override {
    return std::move(server_->Recommend(users, top_n).lists);
  }

 private:
  std::shared_ptr<const serving::ServingEngine> engine_;
  std::unique_ptr<serving::ServeRecommender> server_;
};

serving::ServeSpec ToServeSpec(const RecommenderSpec& spec) {
  serving::ServeSpec serve;
  serve.mechanism = spec.mechanism;
  serve.epsilon = spec.epsilon;
  serve.seed = spec.seed;
  serve.gs_group_size = spec.gs_group_size;
  serve.expected_graph_hash = spec.expected_graph_hash;
  return serve;
}

Result<serving::ServingEngine> BuildEngine(
    artifact::ModelArtifactBuilder& builder,
    const artifact::BuildOptions& options) {
  Result<serving::ArtifactModel> model = builder.Build(options);
  if (!model.ok()) return model.status();
  return serving::ServingEngine::FromModel(std::move(model).value());
}

// "Cluster" over a context: Algorithm 1 end to end on every call. Each
// Recommend builds the model again, and the builder's cached publisher
// advances its invocation counter, so the k-th call serves the k-th
// release of (epsilon, seed).
class PublishingRecommender final : public Recommender {
 public:
  PublishingRecommender(const RecommenderContext& context,
                        community::Partition partition,
                        const RecommenderSpec& spec)
      : partition_(std::move(partition)),
        builder_(context.social, context.preferences),
        serve_(ToServeSpec(spec)) {
    builder_.SetPartition(&partition_);
    builder_.SetWorkload(context.workload);
    options_.epsilon = spec.epsilon;
    options_.seed = spec.seed;
    options_.include_reference_sections = false;
  }

  std::string Name() const override { return "Cluster"; }

  std::vector<RecommendationList> Recommend(
      const std::vector<graph::NodeId>& users, int64_t top_n) override {
    Result<serving::ServingEngine> engine = BuildEngine(builder_, options_);
    PRIVREC_CHECK_MSG(engine.ok(), engine.status().message().c_str());
    Result<std::unique_ptr<serving::ServeRecommender>> server =
        serving::MakeServeRecommender(&*engine, serve_);
    PRIVREC_CHECK_MSG(server.ok(), server.status().message().c_str());
    return std::move((*server)->Recommend(users, top_n).lists);
  }

 private:
  community::Partition partition_;
  artifact::ModelArtifactBuilder builder_;
  artifact::BuildOptions options_;
  serving::ServeSpec serve_;
};

}  // namespace

const std::vector<std::string>& MechanismNames() {
  static const std::vector<std::string>& kNames =
      *new std::vector<std::string>{"Exact", "Cluster", "NOU",
                                    "NOE",   "GS",      "LRM"};
  return kNames;
}

Result<std::unique_ptr<Recommender>> MakeRecommender(
    const RecommenderContext& context, const RecommenderSpec& spec) {
  context.CheckValid();
  const std::vector<std::string>& names = MechanismNames();
  if (std::find(names.begin(), names.end(), spec.mechanism) == names.end()) {
    return Status::InvalidArgument("unknown mechanism: " + spec.mechanism);
  }
  const bool exact = spec.mechanism == "Exact";
  if (!exact && !dp::IsValidEpsilon(spec.epsilon)) {
    return Status::InvalidArgument("bad epsilon for mechanism '" +
                                   spec.mechanism + "'");
  }
  if (spec.mechanism == "LRM" && spec.lrm_target_rank < 1) {
    return Status::InvalidArgument("lrm_target_rank must be >= 1");
  }
  if (spec.partition != nullptr &&
      spec.partition->num_nodes() != context.social->num_nodes()) {
    return Status::InvalidArgument(
        "partition does not cover the social graph's node set");
  }
  // The model comes from this context, so there is no other dataset to
  // gate against.
  RecommenderSpec own = spec;
  own.expected_graph_hash = 0;
  if (spec.mechanism == "Cluster") {
    if (spec.partition == nullptr) {
      return Status::InvalidArgument(
          "Cluster requires a partition (createClusters output)");
    }
    return std::unique_ptr<Recommender>(
        new PublishingRecommender(context, *spec.partition, own));
  }

  // The other mechanisms draw their noise at serve time, so one build
  // serves every call. Its publication is never served.
  if (exact) own.epsilon = dp::kEpsilonInfinity;
  const community::Partition whole =
      community::Partition::Whole(context.social->num_nodes());
  artifact::ModelArtifactBuilder builder(context.social, context.preferences);
  builder.SetPartition(spec.partition != nullptr ? spec.partition : &whole);
  builder.SetWorkload(context.workload);
  artifact::BuildOptions options;
  options.epsilon = own.epsilon;
  options.seed = own.seed;
  options.include_lowrank = spec.mechanism == "LRM";
  options.lrm_target_rank = spec.lrm_target_rank;
  options.lrm_seed = spec.seed;
  Result<serving::ServingEngine> engine = BuildEngine(builder, options);
  if (!engine.ok()) return engine.status();
  return MakeArtifactRecommender(
      std::make_shared<const serving::ServingEngine>(
          std::move(engine).value()),
      own);
}

Result<std::unique_ptr<Recommender>> MakeArtifactRecommender(
    std::shared_ptr<const serving::ServingEngine> engine,
    const RecommenderSpec& spec) {
  PRIVREC_CHECK(engine != nullptr);
  Result<std::unique_ptr<serving::ServeRecommender>> server =
      serving::MakeServeRecommender(engine.get(), ToServeSpec(spec));
  if (!server.ok()) return server.status();
  return std::unique_ptr<Recommender>(new ArtifactBackedRecommender(
      std::move(engine), std::move(server).value()));
}

}  // namespace privrec::core
