// Circuit breaker for the serving runtime's backing-store operations
// (artifact reloads, ledger I/O).
//
// Classic three-state machine, driven by an injected clock so tests are
// deterministic:
//
//   closed     operations run; `failure_threshold` CONSECUTIVE failures
//              trip the breaker open.
//   open       operations are rejected immediately with
//              kResourceExhausted and a retry-after hint — a flapping
//              backing store is not hammered, and request threads never
//              block behind a reload that cannot succeed. After
//              `cooldown_ms` on the injected clock the breaker becomes
//              half-open.
//   half-open  ONE caller at a time may probe. The probe runs the
//              operation up to kProbeAttempts times back to back while it
//              fails with kIoError, so a transient I/O blip during
//              recovery does not immediately re-trip the breaker; any
//              other failure ends the probe at once. A successful probe
//              closes the breaker; a final failure re-opens it and
//              restarts the cooldown.
//
// State is observable: privrec.serve.breaker_state gauge (0 closed,
// 1 open, 2 half-open) plus transition counters
// privrec.serve.breaker_{opened,closed}_total.

#ifndef PRIVREC_SERVE_CIRCUIT_BREAKER_H_
#define PRIVREC_SERVE_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/status.h"
#include "serve/clock.h"

namespace privrec::serve {

enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* BreakerStateName(BreakerState state);

struct CircuitBreakerOptions {
  // Consecutive failures (in closed state) that trip the breaker.
  int64_t failure_threshold = 3;
  // Open -> half-open after this much injected-clock time.
  int64_t cooldown_ms = 1000;
};

class CircuitBreaker {
 public:
  // Runs of the operation one half-open probe may make.
  static constexpr int kProbeAttempts = 3;

  // `name` scopes the metrics ("privrec.serve.breaker_state" is shared;
  // the name appears in rejection messages). Null clock = SteadyClock.
  CircuitBreaker(std::string name, CircuitBreakerOptions options,
                 const Clock* clock = nullptr);

  // Current state; performs the open -> half-open transition when the
  // cooldown has elapsed on the injected clock.
  BreakerState state() const;

  // Runs `op` through the breaker:
  //   open       -> kResourceExhausted immediately (op not invoked), with
  //                 the remaining cooldown in the message;
  //   half-open  -> op, run again while it returns kIoError, at most
  //                 kProbeAttempts runs; only one probe admitted per
  //                 transition window, concurrent callers are rejected
  //                 like open;
  //   closed     -> op once.
  // The result feeds the state machine and is returned unchanged.
  Status Run(const std::function<Status()>& op);

  // Remaining cooldown before a half-open probe is allowed (0 when not
  // open) — the retry-after hint surfaced to shed callers.
  int64_t retry_after_ms() const;

  int64_t consecutive_failures() const;
  const std::string& name() const { return name_; }

 private:
  BreakerState StateLocked(int64_t now_ms) const;
  void RecordLocked(bool ok, int64_t now_ms);

  const std::string name_;
  const CircuitBreakerOptions options_;
  const Clock* clock_;

  mutable std::mutex mu_;
  // kOpen is represented by (tripped_ && now < opened_at_ + cooldown);
  // after the cooldown StateLocked reports kHalfOpen without a separate
  // transition event, so the machine is a pure function of (history, now).
  mutable bool tripped_ = false;
  mutable bool probe_in_flight_ = false;
  int64_t opened_at_ms_ = 0;
  int64_t failures_ = 0;  // consecutive, resets on success
};

}  // namespace privrec::serve

#endif  // PRIVREC_SERVE_CIRCUIT_BREAKER_H_
