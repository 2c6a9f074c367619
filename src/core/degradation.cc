#include "core/degradation.h"

#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace privrec::core {

const char* DegradationReasonName(DegradationReason reason) {
  switch (reason) {
    case DegradationReason::kNone:
      return "none";
    case DegradationReason::kIsolatedUser:
      return "isolated_user";
    case DegradationReason::kNonFiniteSanitized:
      return "nonfinite_sanitized";
    case DegradationReason::kStaleReplay:
      return "stale_replay";
    case DegradationReason::kLoadShed:
      return "load_shed";
  }
  return "none";
}

std::string ServingReport::ToString() const {
  std::vector<std::string> parts;
  auto note = [&parts](int64_t n, const char* what) {
    if (n > 0) parts.push_back(std::to_string(n) + " " + what);
  };
  note(users_degraded, "degraded users");
  note(empty_clusters, "empty clusters");
  note(singleton_clusters, "singleton clusters");
  note(degenerate_groups, "degenerate groups");
  note(nonfinite_sanitized, "non-finite values sanitized");
  return parts.empty() ? "clean" : Join(parts, ", ");
}

void RecordServingMetrics(const RecommendedBatch& batch) {
  static obs::Counter& served =
      obs::GetCounter("privrec.serving.users_served");
  static obs::Counter& degraded =
      obs::GetCounter("privrec.serving.users_degraded");
  static obs::Counter& blocks_visited =
      obs::GetCounter("privrec.serving.bound_blocks_visited_total");
  static obs::Counter& blocks_total =
      obs::GetCounter("privrec.serving.bound_blocks_total");
  served.Add(static_cast<int64_t>(batch.lists.size()));
  degraded.Add(batch.report.users_degraded);
  blocks_visited.Add(batch.report.bound_blocks_visited);
  blocks_total.Add(batch.report.bound_blocks_total);
  // One counter per reason, tallied over the batch and then resolved
  // once per reason that occurs: the registry lookup (with its mutex)
  // runs per batch, not per user, and a reason no user had is never
  // registered.
  std::map<DegradationReason, int64_t> by_reason;
  for (const DegradationInfo& info : batch.degradation) {
    if (info.degraded()) ++by_reason[info.reason];
  }
  for (const auto& [reason, users] : by_reason) {
    obs::GetCounter(std::string("privrec.serving.degraded.") +
                    DegradationReasonName(reason))
        .Add(users);
  }
}

}  // namespace privrec::core
