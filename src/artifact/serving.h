// ServingEngine: the online half of the build/serve split.
//
// An engine wraps one immutable artifact — either an owned ArtifactModel
// handed over in memory or a zero-copy MappedArtifact view of a saved
// .pvram manifest and its shards — and constructs serve-side recommenders
// that read ONLY artifact sections.
// The private PreferenceGraph type is not merely unused here — it is
// unlinkable: the privrec_serving library must not depend on
// privrec_graph, which CMake asserts and artifact_test verifies at the
// include level. The paper's point (and Machanavajjhala et al.'s): after
// the ε-DP publication, serving is post-processing and must depend only
// on the sanitized release.
//
// Both storage modes take one open path. An owned model is described as
// the one shard of a K = 1 layout, so the validator that checks a saved
// artifact's content checks it too, and the same per-row pointer tables
// are built over it. Every serve mechanism is therefore
// storage-oblivious: for a fixed model and seed the k-th serve call is
// bit-identical at any thread count, whether the bytes live in owned
// vectors (core::MakeRecommender's FromModel route), an mmap, or the
// read-into-buffer fallback. sharded_artifact_test pins the full matrix.

#ifndef PRIVREC_ARTIFACT_SERVING_H_
#define PRIVREC_ARTIFACT_SERVING_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "artifact/mapped.h"
#include "artifact/model.h"
#include "artifact/reconstruct.h"
#include "common/status.h"
#include "core/degradation.h"
#include "core/recommendation.h"
#include "graph/ids.h"

namespace privrec::serving {

class ServingEngine {
 public:
  // Open + validate a .pvram manifest and its shards, mapped or read per
  // PRIVREC_NO_MMAP (errors: kNotFound, kIoError, kParseError with the
  // damaged section's name, kVersionMismatch, kDataLoss, kGraphMismatch,
  // kProvenanceMismatch, kFailedPrecondition per artifact/mapped.h).
  // Passing a shard file directly is kInvalidArgument: load the manifest.
  static Result<ServingEngine> Load(const std::string& path);

  // Adopt an in-memory model (the no-I/O serve path of
  // core::MakeRecommender, DynamicRecommenderSession and the benches).
  // Checks its vector sizes, then opens it as a one-shard layout: a
  // content defect is the kParseError, with the same message, that Load
  // returns for a saved copy of the model.
  static Result<ServingEngine> FromModel(ArtifactModel model);

  // Adopt a validated mapped artifact and serve its arrays in place. The
  // engine shares ownership, so the mapping outlives every reader that
  // reached it through this engine (epoch pinning — see artifact/mapped.h).
  static Result<ServingEngine> FromMapped(
      std::shared_ptr<const MappedArtifact> mapped);

  // Default-constructed engines are empty placeholders (epoch snapshots
  // fill them by move). Move-only otherwise: accessors hand out pointers
  // into the engine's storage, and vector/mmap storage is stable under
  // move but not under copy.
  ServingEngine() = default;
  ServingEngine(ServingEngine&&) = default;
  ServingEngine& operator=(ServingEngine&&) = default;
  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  // Scalars (meta, provenance, workload bounds, noisy-table counters,
  // low-rank dimensions) are always populated; in mapped mode the bulk
  // arrays inside stay empty — go through the accessors below instead.
  const ArtifactModel& model() const { return model_; }

  bool mapped() const { return mapped_ != nullptr; }
  bool mmap_backed() const { return mapped_ && mapped_->mmap_backed(); }

  // ---- Compatibility gates (distinct codes per gate) ----
  // kGraphMismatch: the model was built from a different (G_s, G_p).
  Status CheckGraph(uint64_t expected_hash) const;
  // kProvenanceMismatch: the request's ε is not the ε this release paid.
  Status CheckEpsilon(double expected_epsilon) const;

  // ---- Read API for serve paths ----
  int64_t num_users() const { return model_.meta.num_users; }
  int64_t num_items() const { return model_.meta.num_items; }
  int64_t num_clusters() const { return num_clusters_; }

  // Sharding topology (1 shard for in-memory artifacts): the shard
  // owning each user's cluster, as reported on the statusz shard map.
  uint32_t shard_count() const { return shard_count_; }
  int32_t ShardOfUser(graph::NodeId u) const {
    return shard_of_cluster_[static_cast<size_t>(
        cluster_of_[static_cast<size_t>(u)])];
  }

  std::span<const WorkloadEntry> WorkloadRow(graph::NodeId u) const {
    const auto i = static_cast<size_t>(u);
    return {workload_row_[i],
            static_cast<size_t>(workload_offsets_[i + 1] -
                                workload_offsets_[i])};
  }

  bool has_preferences() const { return model_.has_preferences; }
  bool has_lowrank() const { return model_.has_lowrank; }

  // Preference CSR accessors (only valid when has_preferences()).
  std::span<const int64_t> ItemsOf(graph::NodeId u) const {
    const auto i = static_cast<size_t>(u);
    return {pref_items_row_[i],
            static_cast<size_t>(pref_offsets_[i + 1] - pref_offsets_[i])};
  }
  std::span<const double> WeightsOf(graph::NodeId u) const {
    const auto i = static_cast<size_t>(u);
    return {pref_weights_row_[i],
            static_cast<size_t>(pref_offsets_[i + 1] - pref_offsets_[i])};
  }
  // Item-major view, derived once at construction (users ascending per
  // item — the same order PreferenceGraph::UsersOf yields).
  std::span<const int64_t> UsersOf(graph::ItemId i) const {
    return {item_users_.data() + item_offsets_[static_cast<size_t>(i)],
            item_users_.data() + item_offsets_[static_cast<size_t>(i) + 1]};
  }
  std::span<const double> ItemWeights(graph::ItemId i) const {
    return {item_weights_.data() + item_offsets_[static_cast<size_t>(i)],
            item_weights_.data() + item_offsets_[static_cast<size_t>(i) + 1]};
  }

  // Low-rank factors (only valid when has_lowrank()): B is num_users x
  // rank row-major, L is rank x num_users row-major.
  const double* lowrank_b() const { return lowrank_b_; }
  const double* lowrank_l() const { return lowrank_l_; }

  // The A_w release as a reconstruction view. The view carries the f32
  // mirror when the artifact has one, so reconstruction runs half-width.
  ReleaseView release_view() const;

  // The global-average fallback row, computed lazily on first use (it is
  // an O(C·I) pass over the release, and the personalized path never needs
  // it — swap storms should not pay for it per epoch). Safe to call from
  // concurrent serve chunks; the first caller computes under a once_flag.
  const std::vector<double>& global_average() const;

 private:
  // The one open path, under the span artifact.engine. The caller has set
  // model_'s scalars and the manifest-level arrays (cluster_of_,
  // workload_offsets_, ...) and passes the shard table with its shards:
  // the mapped files, or an owned model's vectors as one shard over
  // clusters [0, num_clusters). InitViews runs every content rule, then
  // points the per-cluster and per-user tables into the shards, then
  // calls BuildDerived, which checks the released values and computes the
  // bound table and the item-major CSR through the accessors.
  Status InitViews(std::span<const ShardTableEntry> table,
                   std::span<const MappedArtifact::Shard> shards);
  Status BuildDerived();

  ArtifactModel model_;
  std::shared_ptr<const MappedArtifact> mapped_;

  // Unified storage views (owned- or mapped-backed).
  const uint64_t* workload_offsets_ = nullptr;  // num_users + 1
  const uint64_t* pref_offsets_ = nullptr;      // num_users + 1 (optional)
  std::vector<const WorkloadEntry*> workload_row_;  // per user
  std::vector<const int64_t*> pref_items_row_;      // per user (optional)
  std::vector<const double*> pref_weights_row_;     // per user (optional)
  std::vector<const double*> cluster_rows_;         // per cluster
  std::vector<const float*> cluster_rows_f32_;      // per cluster (optional)
  const uint8_t* sanitized_ = nullptr;
  const int64_t* cluster_of_ = nullptr;
  const int64_t* cluster_sizes_ = nullptr;
  const double* lowrank_b_ = nullptr;
  const double* lowrank_l_ = nullptr;
  int64_t num_clusters_ = 0;
  uint32_t shard_count_ = 1;
  std::vector<int32_t> shard_of_cluster_;  // per cluster

  // Derived (not persisted): reconstruction's bound table
  // (ReleaseView::block_max), the item-major preference CSR and the lazy
  // global fallback row. The row lives behind a shared_ptr because the
  // engine is move-only while std::once_flag is not movable at all.
  std::vector<double> block_max_;
  std::vector<uint64_t> item_offsets_;
  std::vector<int64_t> item_users_;
  std::vector<double> item_weights_;
  struct LazyGlobal {
    std::once_flag once;
    std::vector<double> row;
  };
  std::shared_ptr<LazyGlobal> global_ = std::make_shared<LazyGlobal>();
};

// What to serve from an engine. `epsilon` is the gate value for the
// Cluster path (noise is already frozen in the artifact) and the
// serve-time noise budget for the reference baselines, which draw fresh
// noise per call from `seed`.
struct ServeSpec {
  std::string mechanism = "Cluster";
  double epsilon = 1.0;
  uint64_t seed = 1;
  int64_t gs_group_size = 128;
  // When nonzero, the engine must match this dataset fingerprint
  // (kGraphMismatch otherwise).
  uint64_t expected_graph_hash = 0;
};

// A recommender over a loaded artifact. Unlike core::Recommender this is
// constructed fallibly (the compatibility gates run at construction) and
// reports degradation with every batch.
class ServeRecommender {
 public:
  virtual ~ServeRecommender() = default;
  virtual std::string Name() const = 0;
  virtual core::RecommendedBatch Recommend(
      const std::vector<graph::NodeId>& users, int64_t top_n) = 0;

  // True when concurrent Recommend calls on one instance are safe (the
  // mechanism keeps no per-call mutable state — Cluster and Exact read the
  // frozen artifact only). The fresh-noise baselines advance an invocation
  // counter per call, so the serving runtime serializes them per epoch.
  virtual bool ConcurrentSafe() const { return false; }
};

// Constructs the serve path for `spec.mechanism` ("Exact", "Cluster",
// "NOU", "NOE", "GS", "LRM"). The engine must outlive the recommender.
// Errors: kGraphMismatch / kProvenanceMismatch per the gates above,
// kFailedPrecondition when the artifact lacks the sections the mechanism
// needs (preferences for the baselines, low-rank factors for LRM),
// kInvalidArgument for an unknown mechanism or bad parameters.
Result<std::unique_ptr<ServeRecommender>> MakeServeRecommender(
    const ServingEngine* engine, const ServeSpec& spec);

}  // namespace privrec::serving

#endif  // PRIVREC_ARTIFACT_SERVING_H_
