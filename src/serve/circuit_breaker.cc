#include "serve/circuit_breaker.h"

#include <utility>

#include "obs/metrics.h"

namespace privrec::serve {

namespace {

obs::Gauge& StateGauge() {
  static obs::Gauge& gauge = obs::GetGauge("privrec.serve.breaker_state");
  return gauge;
}

}  // namespace

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "closed";
}

CircuitBreaker::CircuitBreaker(std::string name,
                               CircuitBreakerOptions options,
                               const Clock* clock)
    : name_(std::move(name)),
      options_(options),
      clock_(clock != nullptr ? clock : SteadyClock::Instance()) {
  StateGauge().Set(0.0);
}

BreakerState CircuitBreaker::StateLocked(int64_t now_ms) const {
  if (!tripped_) return BreakerState::kClosed;
  if (now_ms - opened_at_ms_ >= options_.cooldown_ms) {
    return BreakerState::kHalfOpen;
  }
  return BreakerState::kOpen;
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StateLocked(clock_->NowMs());
}

int64_t CircuitBreaker::retry_after_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t now = clock_->NowMs();
  if (StateLocked(now) != BreakerState::kOpen) return 0;
  return options_.cooldown_ms - (now - opened_at_ms_);
}

int64_t CircuitBreaker::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

void CircuitBreaker::RecordLocked(bool ok, int64_t now_ms) {
  static obs::Counter& opened =
      obs::GetCounter("privrec.serve.breaker_opened_total");
  static obs::Counter& closed =
      obs::GetCounter("privrec.serve.breaker_closed_total");
  const BreakerState state = StateLocked(now_ms);
  if (ok) {
    failures_ = 0;
    if (state == BreakerState::kHalfOpen) {
      tripped_ = false;
      closed.Increment();
    }
  } else {
    if (state == BreakerState::kHalfOpen) {
      // A failed probe re-opens and restarts the cooldown.
      opened_at_ms_ = now_ms;
      opened.Increment();
    } else if (++failures_ >= options_.failure_threshold && !tripped_) {
      tripped_ = true;
      opened_at_ms_ = now_ms;
      opened.Increment();
    }
  }
  StateGauge().Set(static_cast<double>(StateLocked(now_ms)));
}

Status CircuitBreaker::Run(const std::function<Status()>& op) {
  BreakerState entry_state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t now = clock_->NowMs();
    entry_state = StateLocked(now);
    if (entry_state == BreakerState::kOpen ||
        (entry_state == BreakerState::kHalfOpen && probe_in_flight_)) {
      static obs::Counter& rejected =
          obs::GetCounter("privrec.serve.breaker_rejected_total");
      rejected.Increment();
      const int64_t retry_in =
          entry_state == BreakerState::kOpen
              ? options_.cooldown_ms - (now - opened_at_ms_)
              : options_.cooldown_ms;
      return Status::ResourceExhausted(
          "circuit '" + name_ + "' open; retry in " +
          std::to_string(retry_in) + "ms");
    }
    if (entry_state == BreakerState::kHalfOpen) probe_in_flight_ = true;
  }

  Status result = op();
  if (entry_state == BreakerState::kHalfOpen) {
    // Half-open probe: give the recovering backing store the benefit of
    // immediate retries for transient errors before judging it.
    for (int attempt = 1; attempt < kProbeAttempts &&
                          result.code() == StatusCode::kIoError;
         ++attempt) {
      result = op();
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry_state == BreakerState::kHalfOpen) probe_in_flight_ = false;
    RecordLocked(result.ok(), clock_->NowMs());
  }
  return result;
}

}  // namespace privrec::serve
