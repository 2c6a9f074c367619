#include "serve/admission.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "common/macros.h"
#include "obs/metrics.h"

namespace privrec::serve {

namespace {

obs::Counter& AdmittedCounter() {
  static obs::Counter& c = obs::GetCounter("privrec.serve.admitted_total");
  return c;
}
obs::Counter& ShedCounter() {
  static obs::Counter& c = obs::GetCounter("privrec.serve.shed_total");
  return c;
}
obs::Counter& ExpiredCounter() {
  static obs::Counter& c =
      obs::GetCounter("privrec.serve.deadline_exceeded_total");
  return c;
}
obs::Counter& PurgedCounter() {
  static obs::Counter& c =
      obs::GetCounter("privrec.serve.admission_purged_total");
  return c;
}

}  // namespace

// Shared state of one admission attempt. Guarded by the owning
// controller's mu_ (the controller must outlive every handle).
struct PendingAdmit::Rep {
  Rep(AdmissionController* c, int64_t deadline)
      : controller(c), deadline_ms(deadline) {}

  AdmissionController* controller;
  const int64_t deadline_ms;
  State state = State::kQueued;
  // Valid when kAdmitted: grant time on the injected clock.
  int64_t admit_ms = 0;
  // Valid when kShed: the load-aware hint captured at rejection.
  int64_t retry_after_ms = 0;
  bool ticket_taken = false;
};

PendingAdmit::State PendingAdmit::state() const {
  std::lock_guard<std::mutex> lock(rep_->controller->mu_);
  return rep_->state;
}

int64_t PendingAdmit::retry_after_ms() const {
  std::lock_guard<std::mutex> lock(rep_->controller->mu_);
  return rep_->retry_after_ms;
}

Status PendingAdmit::status() const {
  std::lock_guard<std::mutex> lock(rep_->controller->mu_);
  switch (rep_->state) {
    case State::kQueued:
    case State::kAdmitted:
      return Status::Ok();
    case State::kShed:
      return Status::ResourceExhausted(
          "serving queue full; retry in " +
          std::to_string(rep_->retry_after_ms) + "ms");
    case State::kExpired:
      return Status::DeadlineExceeded("deadline expired before a slot");
  }
  return Status::Internal("unreachable admission state");
}

AdmissionTicket PendingAdmit::TakeTicket() {
  std::lock_guard<std::mutex> lock(rep_->controller->mu_);
  PRIVREC_CHECK_MSG(rep_->state == State::kAdmitted,
                    "TakeTicket on an unadmitted request");
  PRIVREC_CHECK_MSG(!rep_->ticket_taken, "TakeTicket called twice");
  rep_->ticket_taken = true;
  return AdmissionTicket(rep_->controller, rep_->admit_ms);
}

void AdmissionTicket::Release() {
  if (controller_ != nullptr) {
    controller_->ReleaseSlot(admit_ms_);
    controller_ = nullptr;
  }
}

AdmissionController::AdmissionController(AdmissionOptions options,
                                         const Clock* clock)
    : options_(options),
      clock_(clock != nullptr ? clock : SteadyClock::Instance()) {}

int64_t AdmissionController::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

int64_t AdmissionController::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_;
}

double AdmissionController::EstimatedHoldMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hold_ewma_ms_;
}

int64_t AdmissionController::RetryAfterHintMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return RetryAfterHintLocked();
}

int64_t AdmissionController::RetryAfterHintLocked() const {
  if (hold_ewma_ms_ <= 0.0) return options_.retry_after_ms;
  // Expected wait for an arrival at the back of the queue: every
  // max_concurrency releases drain one queue layer, each layer costing
  // one estimated hold time.
  const double layers =
      static_cast<double>(waiting_ + 1) /
      static_cast<double>(std::max<int64_t>(1, options_.max_concurrency));
  const int64_t estimate =
      static_cast<int64_t>(std::ceil(hold_ewma_ms_ * layers));
  return std::max(options_.retry_after_ms, estimate);
}

int64_t AdmissionController::PurgeExpiredLocked(int64_t now_ms) {
  int64_t purged = 0;
  for (auto& rep : queue_) {
    if (rep->state == PendingAdmit::State::kQueued &&
        now_ms >= rep->deadline_ms) {
      rep->state = PendingAdmit::State::kExpired;
      --waiting_;
      ++purged;
    }
  }
  if (purged > 0) {
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [](const auto& rep) {
                                  return rep->state !=
                                         PendingAdmit::State::kQueued;
                                }),
                 queue_.end());
    ExpiredCounter().Add(purged);
    PurgedCounter().Add(purged);
  }
  return purged;
}

int64_t AdmissionController::PurgeExpired() {
  int64_t purged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    purged = PurgeExpiredLocked(clock_->NowMs());
  }
  if (purged > 0) slot_free_.notify_all();
  return purged;
}

void AdmissionController::ReleaseSlot(int64_t admit_ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t now = clock_->NowMs();
    const double hold =
        static_cast<double>(std::max<int64_t>(0, now - admit_ms));
    if (!has_hold_) {
      hold_ewma_ms_ = hold;
      has_hold_ = true;
    } else {
      const double a = options_.hold_ewma_alpha;
      hold_ewma_ms_ = a * hold + (1.0 - a) * hold_ewma_ms_;
    }
    // Dead requests first: a waiter whose deadline already passed must
    // not consume the freed slot just to wake up and fail.
    PurgeExpiredLocked(now);
    if (!queue_.empty()) {
      // Hand the slot straight to the first live waiter — in_flight_
      // stays constant across the transfer.
      std::shared_ptr<PendingAdmit::Rep> granted = queue_.front();
      queue_.pop_front();
      --waiting_;
      granted->state = PendingAdmit::State::kAdmitted;
      granted->admit_ms = now;
      AdmittedCounter().Increment();
    } else {
      --in_flight_;
    }
  }
  slot_free_.notify_all();
}

PendingAdmit AdmissionController::AdmitAsync(int64_t deadline_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t now = clock_->NowMs();
  PurgeExpiredLocked(now);
  auto rep = std::make_shared<PendingAdmit::Rep>(this, deadline_ms);
  if (now >= deadline_ms) {
    rep->state = PendingAdmit::State::kExpired;
    ExpiredCounter().Increment();
  } else if (in_flight_ < options_.max_concurrency) {
    ++in_flight_;
    rep->state = PendingAdmit::State::kAdmitted;
    rep->admit_ms = now;
    AdmittedCounter().Increment();
  } else if (waiting_ >= options_.queue_depth) {
    rep->state = PendingAdmit::State::kShed;
    rep->retry_after_ms = RetryAfterHintLocked();
    ShedCounter().Increment();
  } else {
    queue_.push_back(rep);
    ++waiting_;
  }
  return PendingAdmit(std::move(rep));
}

void PendingAdmit::Wait() {
  AdmissionController& c = *rep_->controller;
  std::unique_lock<std::mutex> lock(c.mu_);
  // Queued: wait in short real-time slices, re-checking the injected
  // clock each wakeup so a ManualClock advanced by another thread is
  // observed promptly; with the default SteadyClock the slice is just a
  // coarse timed wait. A grant races a concurrent expiry in our favor:
  // once ReleaseSlot marked this waiter admitted, it keeps the slot.
  while (rep_->state == State::kQueued) {
    if (c.clock_->NowMs() >= rep_->deadline_ms) {
      rep_->state = State::kExpired;
      --c.waiting_;
      c.queue_.erase(std::remove(c.queue_.begin(), c.queue_.end(), rep_),
                     c.queue_.end());
      ExpiredCounter().Increment();
      break;
    }
    c.slot_free_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

Result<AdmissionTicket> AdmissionController::Admit(int64_t deadline_ms) {
  PendingAdmit pending = AdmitAsync(deadline_ms);
  pending.Wait();
  if (pending.state() != PendingAdmit::State::kAdmitted) {
    return pending.status();
  }
  return pending.TakeTicket();
}

}  // namespace privrec::serve
