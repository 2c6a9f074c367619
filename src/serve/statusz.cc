#include "serve/statusz.h"

#include <algorithm>
#include <utility>

#include "kernels/dispatch.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/runtime.h"
#include "serve/telemetry.h"

namespace privrec::serve {

namespace {

constexpr size_t kRecentAlerts = 5;

void FillTelemetry(const ServeTelemetry* telemetry,
                   RuntimeIntrospection* status) {
  if (telemetry == nullptr) return;
  status->has_telemetry = true;
  status->telemetry_recorded = telemetry->recorded();
  status->telemetry_sampled = telemetry->sampled();
  status->telemetry_dropped = telemetry->dropped_events();
  status->window_breaches = telemetry->window_breaches();
  status->burn_rate = telemetry->burn_rate();
  obs::WindowSeries series = telemetry->series();
  if (!series.windows.empty()) {
    status->has_last_window = true;
    status->last_window = series.windows.back();
  }
  const size_t n = series.alerts.size();
  const size_t first = n > kRecentAlerts ? n - kRecentAlerts : 0;
  status->recent_alerts.assign(series.alerts.begin() + first,
                               series.alerts.end());
}

void FillRegistrySlices(RuntimeIntrospection* status) {
  obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Instance().Snapshot();
  for (obs::GaugeSample& g : snapshot.gauges) {
    if (g.name.rfind("privrec.dp.", 0) == 0) {
      status->epsilon_gauges.push_back(std::move(g));
    }
  }
  for (obs::CounterSample& c : snapshot.counters) {
    if (c.name.rfind("privrec.serve.", 0) == 0) {
      status->serve_counters.push_back(std::move(c));
    }
  }
}

}  // namespace

RuntimeIntrospection ServeRuntime::Introspect(int64_t now_ms) const {
  RuntimeIntrospection status;
  status.now_ms = now_ms >= 0 ? now_ms : clock_->NowMs();

  std::shared_ptr<const EpochSnapshot> epoch = swapper_.Acquire();
  if (epoch != nullptr) {
    status.has_epoch = true;
    status.epoch = epoch->epoch;
    status.artifact_seed = epoch->artifact_seed;
    status.epsilon = epoch->epsilon;
    status.ledger_id = epoch->engine.model().provenance.ledger_id;
    status.num_users = epoch->engine.num_users();
    status.num_items = epoch->engine.num_items();
    status.num_clusters = epoch->engine.num_clusters();
    status.mapped = epoch->engine.mapped();
    status.shard_count =
        static_cast<int64_t>(epoch->engine.shard_count());
    if (status.shard_count > 1) {
      status.shard_users.assign(
          static_cast<size_t>(status.shard_count), 0);
      for (int64_t u = 0; u < status.num_users; ++u) {
        const auto s =
            static_cast<size_t>(epoch->engine.ShardOfUser(u));
        if (s < status.shard_users.size()) ++status.shard_users[s];
      }
    }
  }

  status.swaps = swapper_.swaps();
  status.rollbacks = swapper_.rollbacks();
  status.last_swap_error = swapper_.last_error();
  status.breaker_state = BreakerStateName(reload_breaker_.state());
  status.breaker_failures = reload_breaker_.consecutive_failures();
  status.breaker_retry_after_ms = reload_breaker_.retry_after_ms();
  status.admission_in_flight = admission_.in_flight();
  status.admission_waiting = admission_.waiting();
  status.admission_max_concurrency = admission_.options().max_concurrency;
  status.admission_queue_depth = admission_.options().queue_depth;
  status.admission_hold_ms = admission_.EstimatedHoldMs();
  status.admission_retry_hint_ms = admission_.RetryAfterHintMs();

  status.kernel_dispatch =
      kernels::DispatchLevelName(kernels::ActiveDispatchLevel());

  FillRegistrySlices(&status);
  FillTelemetry(options_.telemetry, &status);
  return status;
}

std::string StatuszText(const RuntimeIntrospection& status) {
  using obs::JsonNumber;
  std::string out;
  out += "==== privrec serve statusz @ " + std::to_string(status.now_ms) +
         " ms ====\n";
  if (status.has_epoch) {
    out += "epoch:      " + std::to_string(status.epoch) +
           " (artifact seed " + std::to_string(status.artifact_seed) +
           ", epsilon " + JsonNumber(status.epsilon) + ", ledger \"" +
           status.ledger_id + "\")\n";
    out += "model:      " + std::to_string(status.num_users) +
           " users x " + std::to_string(status.num_items) + " items, " +
           std::to_string(status.num_clusters) + " clusters, " +
           std::to_string(status.shard_count) + " shard(s)" +
           (status.mapped ? " [mapped]" : "") + "\n";
    if (!status.shard_users.empty()) {
      out += "shard map: ";
      for (size_t s = 0; s < status.shard_users.size(); ++s) {
        out += " s" + std::to_string(s) + "=" +
               std::to_string(status.shard_users[s]);
      }
      out += "\n";
    }
  } else {
    out += "epoch:      none (no artifact activated yet)\n";
  }
  out += "swaps:      " + std::to_string(status.swaps) + " ok, " +
         std::to_string(status.rollbacks) + " rollback(s)";
  if (!status.last_swap_error.empty()) {
    out += "; last error: " + status.last_swap_error;
  }
  out += "\n";
  out += "breaker:    " + status.breaker_state + " (" +
         std::to_string(status.breaker_failures) +
         " consecutive failure(s)";
  if (status.breaker_retry_after_ms > 0) {
    out += ", retry after " +
           std::to_string(status.breaker_retry_after_ms) + " ms";
  }
  out += ")\n";
  out += "admission:  " + std::to_string(status.admission_in_flight) +
         "/" + std::to_string(status.admission_max_concurrency) +
         " in flight, " + std::to_string(status.admission_waiting) + "/" +
         std::to_string(status.admission_queue_depth) +
         " queued, hold est " + JsonNumber(status.admission_hold_ms) +
         " ms, retry hint " +
         std::to_string(status.admission_retry_hint_ms) + " ms\n";
  out += "kernels:    dispatch " + status.kernel_dispatch + "\n";
  for (const obs::GaugeSample& g : status.epsilon_gauges) {
    out += "epsilon:    " + g.name + " = " + JsonNumber(g.value) + "\n";
  }
  for (const obs::CounterSample& c : status.serve_counters) {
    out += "counter:    " + c.name + " = " + std::to_string(c.value) +
           "\n";
  }
  if (status.has_telemetry) {
    out += "telemetry:  " + std::to_string(status.telemetry_recorded) +
           " recorded, " + std::to_string(status.telemetry_sampled) +
           " sampled, " + std::to_string(status.telemetry_dropped) +
           " dropped, " + std::to_string(status.window_breaches) +
           " window breach(es), burn rate " +
           JsonNumber(status.burn_rate) + "\n";
    if (status.has_last_window) {
      const obs::WindowStats& w = status.last_window;
      out += "window:     [#" + std::to_string(w.index) + " @" +
             std::to_string(w.start_ms) + "ms] " +
             std::to_string(w.requests) + " req, rps " +
             JsonNumber(w.rps) + ", shed rate " +
             JsonNumber(w.shed_rate) + ", p50 " + JsonNumber(w.p50_ms) +
             " p99 " + JsonNumber(w.p99_ms) + " p999 " +
             JsonNumber(w.p999_ms) + "\n";
    }
    for (const obs::WindowAlert& alert : status.recent_alerts) {
      out += "alert:      [#" + std::to_string(alert.window_index) +
             " @" + std::to_string(alert.at_ms) + "ms] burn " +
             JsonNumber(alert.burn_rate) + ": " + alert.reason + "\n";
    }
  } else {
    out += "telemetry:  (no sink attached)\n";
  }
  return out;
}

}  // namespace privrec::serve
