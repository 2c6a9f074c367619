// Graceful-degradation reporting for the serving layer.
//
// Operational faults (degenerate clusterings, isolated users, poisoned
// noise values, exhausted budgets) should degrade a response and say so,
// not kill the request with kInternal. Every serve mechanism
// (serving::ServeRecommender) returns, alongside the lists, a per-user
// DegradationInfo and a batch-level ServingReport; core::Recommender's
// Recommend() keeps its signature and simply drops the diagnostics.

#ifndef PRIVREC_CORE_DEGRADATION_H_
#define PRIVREC_CORE_DEGRADATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/recommendation.h"

namespace privrec::core {

enum class DegradationReason {
  kNone = 0,
  // The user has no similarity support (empty sim(u) row, or all of it in
  // dead clusters); utilities fell back to the global average release.
  kIsolatedUser,
  // Non-finite noisy values (NaN/Inf) were sanitized out of the release
  // this user's utilities were reconstructed from.
  kNonFiniteSanitized,
  // The privacy budget could not cover a fresh release; the user received
  // a replay of the last paid release.
  kStaleReplay,
  // The serving runtime shed this request (queue full or deadline
  // exceeded) and answered from the global-average fallback tier instead
  // of running the personalized reconstruction. The response's Status
  // still carries the typed rejection (kResourceExhausted /
  // kDeadlineExceeded); this reason marks the degraded answer that rode
  // along with it.
  kLoadShed,
};

const char* DegradationReasonName(DegradationReason reason);

struct DegradationInfo {
  DegradationReason reason = DegradationReason::kNone;
  bool degraded() const { return reason != DegradationReason::kNone; }
};

// Batch-level serving diagnostics.
struct ServingReport {
  int64_t users_degraded = 0;
  // Degenerate clustering shape seen by this release.
  int64_t empty_clusters = 0;
  int64_t singleton_clusters = 0;
  // Group-and-smooth degenerate grouping (a single group is a global
  // ranking, no longer personalized smoothing).
  int64_t degenerate_groups = 0;
  // Non-finite noisy values replaced with 0 before ranking.
  int64_t nonfinite_sanitized = 0;
  // Cluster reconstruction's pruning, summed over the personalized
  // users: item blocks visited, against the blocks the release has, and
  // the 8-item lines of the visited blocks whose items were summed.
  int64_t bound_blocks_visited = 0;
  int64_t bound_blocks_total = 0;
  int64_t bound_lines_summed = 0;

  bool Clean() const {
    return users_degraded == 0 && empty_clusters == 0 &&
           nonfinite_sanitized == 0 && degenerate_groups == 0;
  }

  std::string ToString() const;
};

// Recommend() output plus diagnostics; `degradation` is parallel to
// `lists` (one entry per requested user).
struct RecommendedBatch {
  std::vector<RecommendationList> lists;
  std::vector<DegradationInfo> degradation;
  ServingReport report;
};

// Folds a served batch into the process-wide metrics registry:
// privrec.serving.users_served, privrec.serving.users_degraded,
// privrec.serving.bound_blocks_visited_total / bound_blocks_total /
// bound_lines_summed_total, and one privrec.serving.degraded.<reason>
// counter per DegradationReason.
void RecordServingMetrics(const RecommendedBatch& batch);

}  // namespace privrec::core

#endif  // PRIVREC_CORE_DEGRADATION_H_
