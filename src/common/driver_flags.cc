#include "common/driver_flags.h"

#include <iostream>
#include <utility>

#include "common/parallel.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace privrec {

int64_t ApplyThreadsFlag(FlagParser& flags) {
  int64_t threads = flags.GetInt("threads", GlobalThreadCount());
  SetGlobalThreadCount(threads);
  return GlobalThreadCount();
}

ServeFlagSettings ApplyServeFlags(FlagParser& flags) {
  ServeFlagSettings s;
  s.deadline_ms = flags.GetInt("serve-deadline-ms", s.deadline_ms);
  s.queue_depth = flags.GetInt("serve-queue-depth", s.queue_depth);
  s.max_concurrency =
      flags.GetInt("serve-max-concurrency", s.max_concurrency);
  s.breaker_failures =
      flags.GetInt("serve-breaker-failures", s.breaker_failures);
  s.breaker_cooldown_ms =
      flags.GetInt("serve-breaker-cooldown-ms", s.breaker_cooldown_ms);
  s.reload_period = flags.GetInt("serve-reload-period", s.reload_period);
  return s;
}

LoadFlagSettings ApplyLoadFlags(FlagParser& flags) {
  LoadFlagSettings s;
  s.rps = flags.GetDouble("load-rps", s.rps);
  s.duration_ms = flags.GetInt("load-duration-ms", s.duration_ms);
  s.seed = flags.GetInt("load-seed", s.seed);
  s.zipf_s = flags.GetDouble("load-zipf-s", s.zipf_s);
  s.users_per_request =
      flags.GetInt("load-users-per-request", s.users_per_request);
  s.burst_factor = flags.GetDouble("load-burst-factor", s.burst_factor);
  s.burst_period_ms =
      flags.GetInt("load-burst-period-ms", s.burst_period_ms);
  s.burst_duration_ms =
      flags.GetInt("load-burst-duration-ms", s.burst_duration_ms);
  s.swap_period_ms = flags.GetInt("load-swap-period-ms", s.swap_period_ms);
  s.swap_storm = flags.GetBool("load-swap-storm", s.swap_storm);
  s.threads = flags.GetInt("load-threads", s.threads);
  s.wall = flags.GetBool("load-wall", s.wall);
  s.slo_p50_ms = flags.GetDouble("load-slo-p50-ms", s.slo_p50_ms);
  s.slo_p99_ms = flags.GetDouble("load-slo-p99-ms", s.slo_p99_ms);
  s.slo_p999_ms = flags.GetDouble("load-slo-p999-ms", s.slo_p999_ms);
  s.slo_shed_rate =
      flags.GetDouble("load-slo-shed-rate", s.slo_shed_rate);
  s.slo_rollback_rate =
      flags.GetDouble("load-slo-rollback-rate", s.slo_rollback_rate);
  s.report = flags.GetString("load-report", s.report);
  return s;
}

TelemetryFlagSettings ApplyTelemetryFlags(FlagParser& flags) {
  TelemetryFlagSettings s;
  s.sample_every =
      flags.GetInt("telemetry-sample-every", s.sample_every);
  s.slow_ms = flags.GetDouble("telemetry-slow-ms", s.slow_ms);
  s.window_ms = flags.GetInt("telemetry-window-ms", s.window_ms);
  s.burn_lookback =
      flags.GetInt("telemetry-burn-lookback", s.burn_lookback);
  s.burn_threshold =
      flags.GetDouble("telemetry-burn-threshold", s.burn_threshold);
  s.window_p99_ms =
      flags.GetDouble("telemetry-window-p99-ms", s.window_p99_ms);
  s.window_shed_rate =
      flags.GetDouble("telemetry-window-shed-rate", s.window_shed_rate);
  s.jsonl = flags.GetString("telemetry-jsonl", s.jsonl);
  s.statusz_every = flags.GetInt("statusz-every", s.statusz_every);
  s.statusz_out = flags.GetString("statusz-out", s.statusz_out);
  return s;
}

StreamFlagSettings ApplyStreamFlags(FlagParser& flags) {
  StreamFlagSettings s;
  s.wal = flags.GetString("stream-wal", s.wal);
  s.fsync_every = flags.GetInt("stream-fsync-every", s.fsync_every);
  s.drift_threshold =
      flags.GetDouble("stream-drift-threshold", s.drift_threshold);
  s.republish_drift =
      flags.GetDouble("stream-republish-drift", s.republish_drift);
  s.republish_growth =
      flags.GetDouble("stream-republish-growth", s.republish_growth);
  s.republish_every =
      flags.GetInt("stream-republish-every", s.republish_every);
  s.min_deltas = flags.GetInt("stream-min-deltas", s.min_deltas);
  return s;
}

ObsSession ObsSession::FromFlags(FlagParser& flags) {
  ObsSession session;
  session.metrics_json_path_ = flags.GetString("metrics-json", "");
  session.trace_path_ = flags.GetString("trace-out", "");
  session.metrics_stderr_ = flags.GetBool("metrics-stderr", false);
  session.finished_ = false;
  if (!session.trace_path_.empty()) {
    obs::Tracer::Instance().SetEnabled(true);
  }
  return session;
}

ObsSession& ObsSession::operator=(ObsSession&& other) noexcept {
  if (this != &other) {
    Finish();
    metrics_json_path_ = std::move(other.metrics_json_path_);
    trace_path_ = std::move(other.trace_path_);
    metrics_stderr_ = other.metrics_stderr_;
    finished_ = other.finished_;
    other.finished_ = true;
  }
  return *this;
}

void ObsSession::Finish() {
  if (finished_) return;
  finished_ = true;

  std::string error;
  if (metrics_stderr_ || !metrics_json_path_.empty()) {
    obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Instance().Snapshot();
    if (metrics_stderr_) {
      obs::MetricsToTable(snapshot, std::cerr);
    }
    if (!metrics_json_path_.empty() &&
        !obs::WriteTextFile(metrics_json_path_,
                            obs::MetricsToJson(snapshot), &error)) {
      std::cerr << "metrics export failed: " << error << "\n";
    }
  }
  if (!trace_path_.empty()) {
    obs::Tracer::Instance().SetEnabled(false);
    if (!obs::WriteTextFile(
            trace_path_,
            obs::SpansToChromeTrace(obs::Tracer::Instance().Snapshot()),
            &error)) {
      std::cerr << "trace export failed: " << error << "\n";
    }
  }
}

}  // namespace privrec
