#include "serve/telemetry.h"

#include "obs/metrics.h"

namespace privrec::serve {

namespace {

obs::Counter& EventsCounter() {
  static obs::Counter& c =
      obs::GetCounter("privrec.serve.telemetry_events_total");
  return c;
}

obs::Counter& SampledCounter() {
  static obs::Counter& c =
      obs::GetCounter("privrec.serve.telemetry_sampled_total");
  return c;
}

obs::Counter& BreachCounter() {
  static obs::Counter& c =
      obs::GetCounter("privrec.serve.slo_window_breaches_total");
  return c;
}

obs::Counter& AlertCounter() {
  static obs::Counter& c =
      obs::GetCounter("privrec.serve.slo_burn_alerts_total");
  return c;
}

obs::Gauge& BurnGauge() {
  static obs::Gauge& g = obs::GetGauge("privrec.serve.slo_burn_rate");
  return g;
}

obs::RequestOutcome OutcomeOfStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return obs::RequestOutcome::kOk;
    case StatusCode::kResourceExhausted:
      return obs::RequestOutcome::kShed;
    case StatusCode::kDeadlineExceeded:
      return obs::RequestOutcome::kExpired;
    case StatusCode::kInvalidArgument:
      return obs::RequestOutcome::kInvalid;
    case StatusCode::kFailedPrecondition:
      return obs::RequestOutcome::kNoEpoch;
    default:
      return obs::RequestOutcome::kError;
  }
}

obs::AdmissionOutcome AdmissionOfEvent(
    const obs::RequestTelemetry& event) {
  switch (event.outcome) {
    case obs::RequestOutcome::kShed:
      return obs::AdmissionOutcome::kShed;
    case obs::RequestOutcome::kExpired:
      return obs::AdmissionOutcome::kExpired;
    case obs::RequestOutcome::kOk:
      // The empty-users fast path answers OK without entering admission.
      if (event.users == 0) return obs::AdmissionOutcome::kNone;
      return event.queue_wait_ms > 0 ? obs::AdmissionOutcome::kQueued
                                     : obs::AdmissionOutcome::kImmediate;
    default:
      return obs::AdmissionOutcome::kNone;
  }
}

}  // namespace

void FinalizeRequestTelemetry(obs::RequestTelemetry& event,
                              const ServeResponse& response,
                              int64_t resolve_ms) {
  event.outcome = OutcomeOfStatus(response.status.code());
  event.epoch = response.epoch;
  event.artifact_seed = response.artifact_seed;
  event.degraded = response.degraded_fallback;
  event.users_degraded = response.batch.report.users_degraded;
  event.bound_blocks_visited = response.batch.report.bound_blocks_visited;
  event.bound_blocks_total = response.batch.report.bound_blocks_total;
  event.retry_after_ms = response.retry_after_ms;
  event.resolve_ms = resolve_ms;
  event.latency_ms = static_cast<double>(resolve_ms - event.arrival_ms);
  event.admission = AdmissionOfEvent(event);
}

ServeTelemetry::ServeTelemetry(ServeTelemetryOptions options)
    : options_(options),
      windows_(options.window_ms, options.budget) {
  events_.reserve(options_.max_events);
}

void ServeTelemetry::DrainWindowSignalsLocked() {
  const obs::WindowSeries& series = windows_.series();
  // dropped_windows shifts the vector, but breaches_/alerts are counted
  // monotonically off the tracker so eviction cannot double-count.
  const int64_t new_breaches = windows_.breaches() - breaches_;
  if (new_breaches > 0) BreachCounter().Add(new_breaches);
  breaches_ = windows_.breaches();
  windows_seen_ = series.windows.size();
  for (; alerts_seen_ < series.alerts.size(); ++alerts_seen_) {
    AlertCounter().Increment();
    alert_at_.push_back(events_.size());
  }
  BurnGauge().Set(windows_.burn_rate());
}

void ServeTelemetry::Record(const obs::RequestTelemetry& event) {
  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;
  EventsCounter().Increment();
  windows_.Observe(event.resolve_ms, event.outcome, event.degraded,
                   event.latency_ms);
  DrainWindowSignalsLocked();
  if (!obs::SampleWideEvent(event,
                            {options_.sample_every, options_.slow_ms})) {
    return;
  }
  ++sampled_;
  SampledCounter().Increment();
  if (events_.size() >= options_.max_events) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

void ServeTelemetry::Flush(int64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  windows_.AdvanceTo(now_ms);
  windows_.Flush();
  DrainWindowSignalsLocked();
}

obs::WindowSeries ServeTelemetry::series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_.series();
}

std::vector<obs::RequestTelemetry> ServeTelemetry::sampled_events()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string ServeTelemetry::EventsJsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<obs::WindowAlert>& alerts = windows_.series().alerts;
  std::string out;
  size_t a = 0;
  for (size_t e = 0; e <= events_.size(); ++e) {
    for (; a < alert_at_.size() && alert_at_[a] == e; ++a) {
      out += obs::WindowAlertToJson(alerts[a]);
      out += '\n';
    }
    if (e == events_.size()) break;
    out += obs::RequestTelemetryToJson(events_[e]);
    out += '\n';
  }
  return out;
}

int64_t ServeTelemetry::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

int64_t ServeTelemetry::sampled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sampled_;
}

int64_t ServeTelemetry::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

int64_t ServeTelemetry::window_breaches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_.breaches();
}

int64_t ServeTelemetry::burn_alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(windows_.series().alerts.size());
}

double ServeTelemetry::burn_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_.burn_rate();
}

}  // namespace privrec::serve
