#include "artifact/builder.h"

#include <utility>
#include <vector>

#include "common/crc32.h"
#include "core/recommender.h"
#include "graph/metrics.h"
#include "obs/trace.h"
#include "similarity/common_neighbors.h"

namespace privrec::artifact {

ModelArtifactBuilder::ModelArtifactBuilder(
    const graph::SocialGraph* social,
    const graph::PreferenceGraph* preferences)
    : social_(social), preferences_(preferences) {
  PRIVREC_CHECK(social != nullptr && preferences != nullptr);
  PRIVREC_CHECK_MSG(social->num_nodes() == preferences->num_users(),
                    "social and preference graphs disagree on |U|");
}

void ModelArtifactBuilder::SetPartition(
    const community::Partition* partition) {
  partition_ = partition;
  publisher_.reset();  // the publisher is bound to the old partition
}

void ModelArtifactBuilder::SetWorkload(
    const similarity::SimilarityWorkload* workload) {
  workload_ = workload;
  publisher_.reset();
  lowrank_.reset();
}

uint64_t ModelArtifactBuilder::graph_hash() {
  if (!graph_hash_) {
    graph_hash_ = graph::DatasetFingerprint(*social_, *preferences_);
  }
  return *graph_hash_;
}

const community::Partition& ModelArtifactBuilder::EnsurePartition(
    const BuildOptions& options) {
  if (partition_ != nullptr) return *partition_;
  if (!owned_partition_) {
    owned_partition_ =
        community::RunLouvain(*social_, options.louvain).partition;
  }
  return *owned_partition_;
}

const similarity::SimilarityWorkload&
ModelArtifactBuilder::EnsureWorkload() {
  if (workload_ != nullptr) return *workload_;
  if (!owned_workload_) {
    owned_workload_ = similarity::SimilarityWorkload::Compute(
        *social_, similarity::CommonNeighbors());
  }
  return *owned_workload_;
}

Result<serving::ArtifactModel> ModelArtifactBuilder::Build(
    const BuildOptions& options) {
  PRIVREC_SPAN("artifact.build");
  const community::Partition& partition = EnsurePartition(options);
  const similarity::SimilarityWorkload& workload = EnsureWorkload();
  if (partition.num_nodes() != social_->num_nodes()) {
    return Status::InvalidArgument(
        "partition does not cover the social graph's node set");
  }
  if (workload.num_users() != social_->num_nodes()) {
    return Status::InvalidArgument(
        "workload does not cover the social graph's node set");
  }

  core::RecommenderContext context;
  context.social = social_;
  context.preferences = preferences_;
  context.workload = &workload;

  // The A_w publication — the one ε-spending step. The publisher is
  // reused across builds with the same (epsilon, seed), so its invocation
  // counter advances once per build.
  if (publisher_ == nullptr || publisher_epsilon_ != options.epsilon ||
      publisher_seed_ != options.seed) {
    publisher_ = std::make_unique<core::ClusterPublisher>(
        context, partition,
        core::ClusterPublisherOptions{.epsilon = options.epsilon,
                                      .seed = options.seed});
    publisher_epsilon_ = options.epsilon;
    publisher_seed_ = options.seed;
  }
  core::ClusterRelease release = publisher_->ComputeRelease();

  serving::ArtifactModel model;
  model.meta.graph_hash = graph_hash();
  model.meta.num_users = social_->num_nodes();
  model.meta.num_items = preferences_->num_items();
  model.meta.num_social_edges = social_->num_edges();
  model.meta.num_preference_edges = preferences_->num_edges();
  model.meta.max_weight = preferences_->max_weight();
  model.meta.measure_name = workload.measure_name();

  model.partition.cluster_of = partition.cluster_of();
  model.partition.sizes = partition.sizes();

  model.workload.offsets.assign(workload.offsets().begin(),
                                workload.offsets().end());
  model.workload.entries.reserve(workload.entries().size());
  for (const similarity::SimilarityEntry& e : workload.entries()) {
    model.workload.entries.push_back({e.user, e.score});
  }
  model.workload.max_column_sum = workload.MaxColumnSum();
  model.workload.max_entry = workload.MaxEntry();

  model.noisy.num_clusters = partition.num_clusters();
  model.noisy.values = std::move(release.values);
  model.noisy.sanitized = std::move(release.sanitized);
  model.noisy.empty_clusters = release.empty_clusters;
  model.noisy.singleton_clusters = release.singleton_clusters;
  model.noisy.nonfinite_sanitized = release.nonfinite_sanitized;

  if (options.table_f32) {
    // Quantize the released table to f32 and bind the mirror to its f64
    // source by CRC so a serve path can prove the widths agree.
    model.has_noisy_f32 = true;
    model.noisy_f32.values.reserve(model.noisy.values.size());
    for (double v : model.noisy.values) {
      model.noisy_f32.values.push_back(static_cast<float>(v));
    }
    model.noisy_f32.source_crc32 =
        Crc32(model.noisy.values.data(),
              model.noisy.values.size() * sizeof(double));
  }

  model.provenance.epsilon = options.epsilon;
  model.provenance.sensitivity = preferences_->max_weight();
  model.provenance.seed = options.seed;
  model.provenance.ledger_id = options.ledger_id;

  if (options.include_reference_sections) {
    model.has_preferences = true;
    auto& p = model.preferences;
    p.offsets.reserve(static_cast<size_t>(social_->num_nodes()) + 1);
    p.offsets.push_back(0);
    p.items.reserve(static_cast<size_t>(preferences_->num_edges()));
    p.weights.reserve(static_cast<size_t>(preferences_->num_edges()));
    for (graph::NodeId u = 0; u < preferences_->num_users(); ++u) {
      auto items = preferences_->ItemsOf(u);
      auto weights = preferences_->WeightsOf(u);
      p.items.insert(p.items.end(), items.begin(), items.end());
      p.weights.insert(p.weights.end(), weights.begin(), weights.end());
      p.offsets.push_back(p.items.size());
    }
  }

  if (options.include_lowrank) {
    if (lowrank_ == nullptr || lowrank_rank_ != options.lrm_target_rank ||
        lowrank_seed_ != options.lrm_seed) {
      lowrank_ = std::make_unique<core::LowRankFactorization>(
          context,
          core::LowRankFactorizationOptions{
              .target_rank = options.lrm_target_rank,
              .seed = options.lrm_seed});
      lowrank_rank_ = options.lrm_target_rank;
      lowrank_seed_ = options.lrm_seed;
    }
    model.has_lowrank = true;
    auto& lr = model.lowrank;
    lr.rank = lowrank_->rank();
    const la::DenseMatrix& b = lowrank_->b();
    const la::DenseMatrix& l = lowrank_->l();
    lr.b.reserve(static_cast<size_t>(b.rows()) *
                 static_cast<size_t>(b.cols()));
    for (int64_t r = 0; r < b.rows(); ++r) {
      const double* row = b.RowPtr(r);
      lr.b.insert(lr.b.end(), row, row + b.cols());
    }
    lr.l.reserve(static_cast<size_t>(l.rows()) *
                 static_cast<size_t>(l.cols()));
    for (int64_t r = 0; r < l.rows(); ++r) {
      const double* row = l.RowPtr(r);
      lr.l.insert(lr.l.end(), row, row + l.cols());
    }
    lr.noise_sensitivity = lowrank_->noise_sensitivity();
    lr.factorization_error = lowrank_->factorization_error();
  }

  return model;
}

}  // namespace privrec::artifact
