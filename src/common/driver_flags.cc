#include "common/driver_flags.h"

#include <iostream>
#include <utility>

#include "common/parallel.h"
#include "loadgen/harness.h"
#include "loadgen/report.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/runtime.h"
#include "serve/telemetry.h"
#include "stream/pipeline.h"

namespace privrec {

int64_t ApplyThreadsFlag(FlagParser& flags) {
  int64_t threads = flags.GetInt("threads", GlobalThreadCount());
  SetGlobalThreadCount(threads);
  return GlobalThreadCount();
}

void ApplyServeFlags(FlagParser& flags, serve::ServeRuntimeOptions* options) {
  serve::AdmissionOptions& admission = options->admission;
  admission.queue_depth =
      flags.GetInt("serve-queue-depth", admission.queue_depth);
  admission.max_concurrency =
      flags.GetInt("serve-max-concurrency", admission.max_concurrency);
  serve::CircuitBreakerOptions& breaker = options->breaker;
  breaker.failure_threshold =
      flags.GetInt("serve-breaker-failures", breaker.failure_threshold);
  breaker.cooldown_ms =
      flags.GetInt("serve-breaker-cooldown-ms", breaker.cooldown_ms);
}

void ApplyTelemetryFlags(FlagParser& flags,
                         serve::ServeTelemetryOptions* options) {
  options->sample_every =
      flags.GetInt("telemetry-sample-every", options->sample_every);
  options->slow_ms = flags.GetDouble("telemetry-slow-ms", options->slow_ms);
  options->window_ms =
      flags.GetInt("telemetry-window-ms", options->window_ms);
  obs::WindowBudget& budget = options->budget;
  budget.p99_ms = flags.GetDouble("telemetry-window-p99-ms", budget.p99_ms);
  budget.max_shed_rate =
      flags.GetDouble("telemetry-window-shed-rate", budget.max_shed_rate);
  budget.lookback = flags.GetInt("telemetry-burn-lookback", budget.lookback);
  budget.burn_threshold =
      flags.GetDouble("telemetry-burn-threshold", budget.burn_threshold);
}

void ApplyLoadFlags(FlagParser& flags, loadgen::LoadRunOptions* run,
                    loadgen::SloBudget* budget) {
  loadgen::LoadSpec& load = run->load;
  load.rps = flags.GetDouble("load-rps", load.rps);
  load.duration_ms = flags.GetInt("load-duration-ms", load.duration_ms);
  load.seed = static_cast<uint64_t>(
      flags.GetInt("load-seed", static_cast<int64_t>(load.seed)));
  load.zipf_s = flags.GetDouble("load-zipf-s", load.zipf_s);
  load.users_per_request =
      flags.GetInt("load-users-per-request", load.users_per_request);
  load.burst_factor = flags.GetDouble("load-burst-factor", load.burst_factor);
  load.burst_period_ms =
      flags.GetInt("load-burst-period-ms", load.burst_period_ms);
  load.burst_duration_ms =
      flags.GetInt("load-burst-duration-ms", load.burst_duration_ms);
  run->storm.period_ms =
      flags.GetInt("load-swap-period-ms", run->storm.period_ms);
  run->wall_threads = flags.GetInt("load-threads", run->wall_threads);
  budget->p50_ms = flags.GetDouble("load-slo-p50-ms", budget->p50_ms);
  budget->p99_ms = flags.GetDouble("load-slo-p99-ms", budget->p99_ms);
  budget->p999_ms = flags.GetDouble("load-slo-p999-ms", budget->p999_ms);
  budget->max_shed_rate =
      flags.GetDouble("load-slo-shed-rate", budget->max_shed_rate);
  budget->max_rollback_rate =
      flags.GetDouble("load-slo-rollback-rate", budget->max_rollback_rate);
}

void ApplyStreamFlags(FlagParser& flags,
                      stream::StreamPipelineOptions* options) {
  stream::EdgeStreamOptions& ingest = options->ingest;
  ingest.wal_path = flags.GetString("stream-wal", ingest.wal_path);
  ingest.fsync_every = flags.GetInt("stream-fsync-every", ingest.fsync_every);
  options->community.drift_threshold = flags.GetDouble(
      "stream-drift-threshold", options->community.drift_threshold);
  stream::RepublishPolicy& republish = options->republish;
  republish.drift_threshold =
      flags.GetDouble("stream-republish-drift", republish.drift_threshold);
  republish.min_growth =
      flags.GetDouble("stream-republish-growth", republish.min_growth);
  republish.every_deltas =
      flags.GetInt("stream-republish-every", republish.every_deltas);
  republish.min_deltas_between =
      flags.GetInt("stream-min-deltas", republish.min_deltas_between);
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
