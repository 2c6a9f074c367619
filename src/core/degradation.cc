#include "core/degradation.h"

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
  for (const DegradationInfo& info : batch.degradation) {
    if (!info.degraded()) continue;
    // One counter per reason; the name set is small and fixed, so the
    // registry lookup (with its mutex) only ever sees a handful of keys.
    obs::GetCounter(std::string("privrec.serving.degraded.") +
                    DegradationReasonName(info.reason))
        .Increment();
  }
}

}  // namespace privrec::core
