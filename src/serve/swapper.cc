#include "serve/swapper.h"

#include <cmath>
#include <utility>
#include <vector>

#include "graph/ids.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace privrec::serve {

namespace {

// The list length the self-check probe requests.
constexpr int64_t kProbeTopN = 10;

obs::Counter& SwapCounter() {
  static obs::Counter& c = obs::GetCounter("privrec.serve.swap_total");
  return c;
}

obs::Counter& RollbackCounter() {
  static obs::Counter& c =
      obs::GetCounter("privrec.serve.swap_rollback_total");
  return c;
}

obs::Gauge& EpochGauge() {
  static obs::Gauge& g = obs::GetGauge("privrec.serve.epoch");
  return g;
}

}  // namespace

ArtifactSwapper::ArtifactSwapper(SwapPolicy policy)
    : policy_(std::move(policy)) {}

std::shared_ptr<const EpochSnapshot> ArtifactSwapper::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::shared_ptr<EpochSnapshot> ArtifactSwapper::AcquireMutable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

int64_t ArtifactSwapper::current_epoch() const {
  return epoch_.load(std::memory_order_relaxed);
}

std::string ArtifactSwapper::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

Status ArtifactSwapper::RecordRollback(Status status) {
  RollbackCounter().Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_error_ = status.ToString();
  }
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  return status;
}

Status ArtifactSwapper::ProbeCandidate(EpochSnapshot* candidate) const {
  if (policy_.probe_users <= 0) return Status::Ok();
  const int64_t num_users = candidate->engine.num_users();
  std::vector<graph::NodeId> probe;
  for (int64_t u = 0; u < std::min(policy_.probe_users, num_users); ++u) {
    probe.push_back(u);
  }
  if (probe.empty()) return Status::Ok();

  core::RecommendedBatch batch =
      candidate->recommender->Recommend(probe, kProbeTopN);
  if (batch.lists.size() != probe.size() ||
      batch.degradation.size() != probe.size()) {
    return Status::FailedPrecondition(
        "self-check probe: batch shape does not match the probe request");
  }
  for (const core::RecommendationList& list : batch.lists) {
    if (static_cast<int64_t>(list.size()) > kProbeTopN) {
      return Status::FailedPrecondition(
          "self-check probe: list longer than top_n");
    }
    for (const core::Recommendation& r : list) {
      if (r.item < 0 || r.item >= candidate->engine.num_items() ||
          !std::isfinite(r.utility)) {
        return Status::FailedPrecondition(
            "self-check probe: non-finite or out-of-range recommendation "
            "(item " +
            std::to_string(r.item) + ")");
      }
    }
  }
  return Status::Ok();
}

Status ArtifactSwapper::Activate(const std::string& path) {
  PRIVREC_SPAN("serve.swap");

  // 1. Load + validate off the request path. Readers keep serving the
  // current epoch throughout.
  Result<serving::ServingEngine> loaded = serving::ServingEngine::Load(path);
  if (!loaded.ok()) return RecordRollback(loaded.status());

  auto candidate = std::make_shared<EpochSnapshot>();
  candidate->engine = std::move(*loaded);
  candidate->artifact_seed = candidate->engine.model().provenance.seed;
  candidate->epsilon = candidate->engine.model().provenance.epsilon;

  // 2. Compatibility gates. The graph fingerprint is pinned to the live
  // epoch unless the policy names one explicitly: a hot swap may upgrade
  // the model, never silently change the dataset being served.
  serving::ServeSpec spec = policy_.spec;
  if (spec.expected_graph_hash == 0 && policy_.pin_graph_hash) {
    std::shared_ptr<const EpochSnapshot> live = Acquire();
    if (live != nullptr) {
      spec.expected_graph_hash = live->engine.model().meta.graph_hash;
    }
  }
  if (policy_.adopt_artifact_epsilon) {
    spec.epsilon = candidate->epsilon;
  }
  Result<std::unique_ptr<serving::ServeRecommender>> recommender =
      serving::MakeServeRecommender(&candidate->engine, spec);
  if (!recommender.ok()) return RecordRollback(recommender.status());
  candidate->recommender = std::move(*recommender);

  // 3. Self-check probe: a candidate that decodes and gates cleanly but
  // would serve garbage is rejected here, before any request can see it.
  Status probed = ProbeCandidate(candidate.get());
  if (!probed.ok()) return RecordRollback(std::move(probed));

  // 4. Publish. In-flight requests holding the old shared_ptr finish on
  // their epoch; the old snapshot is destroyed when the last one drains.
  const int64_t epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  candidate->epoch = epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(candidate);
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  SwapCounter().Increment();
  EpochGauge().Set(static_cast<double>(epoch));
  return Status::Ok();
}

}  // namespace privrec::serve
