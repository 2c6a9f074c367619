// Admission control for the serving runtime: a concurrency limiter with a
// bounded FIFO wait queue, per-request deadlines, and load shedding.
//
// The policy, evaluated on the injected clock:
//
//   - at most `max_concurrency` requests hold a serving slot at once;
//   - at most `queue_depth` further requests may WAIT for a slot; a
//     request arriving beyond that is shed immediately with
//     kResourceExhausted and a retry-after hint (failing fast under
//     overload keeps the queue short and latency bounded — Zhao et al.'s
//     serving-side lesson);
//   - a request whose deadline passes before it gets a slot (or that
//     arrives with an already-expired deadline) fails with
//     kDeadlineExceeded. Expired waiters are PURGED — at admission entry
//     and whenever a slot frees — so a dead request never holds a queue
//     position against live traffic, and a freed slot always goes to the
//     first waiter that can still use it;
//   - the retry-after hint is load-aware: an EWMA of observed slot-hold
//     times (measured on the injected clock) scales with the current
//     queue occupancy to estimate the wait a new arrival would face,
//     floored at the configured constant.
//
// Both rejection codes are typed so the runtime can layer the degradation
// tiers on top: a shed request can still be answered from the global-
// average fallback (core/degradation kLoadShed) without touching the
// contended serve path.
//
// Every admission is a PendingAdmit handle from AdmitAsync(), resolved
// either immediately or later, when a release grants it the freed slot
// (or a purge expires it). The open-loop load harness (src/loadgen)
// polls handles in virtual time — queue occupancy is real, but no
// thread ever parks, so a single-threaded discrete-event loop
// reproduces admission decisions bit-for-bit. Thread-per-request callers
// block in PendingAdmit::Wait() instead.

#ifndef PRIVREC_SERVE_ADMISSION_H_
#define PRIVREC_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "common/status.h"
#include "serve/clock.h"

namespace privrec::serve {

struct AdmissionOptions {
  // Concurrent requests allowed past admission.
  int64_t max_concurrency = 4;
  // Requests allowed to wait for a slot beyond max_concurrency; arrivals
  // beyond this are shed immediately.
  int64_t queue_depth = 8;
  // FLOOR for the retry-after hint attached to shed responses; the
  // controller scales the hint up with queue occupancy (RetryAfterHintMs).
  int64_t retry_after_ms = 50;
  // Smoothing factor for the slot-hold-time EWMA behind the hint, in
  // (0, 1]; 1 tracks only the latest hold.
  double hold_ewma_alpha = 0.2;
};

class AdmissionController;

// RAII slot: releasing returns the slot to the controller and hands it to
// the first live waiter. Move-only; a default-constructed ticket holds
// nothing.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  ~AdmissionTicket() { Release(); }
  AdmissionTicket(AdmissionTicket&& other) noexcept
      : controller_(other.controller_), admit_ms_(other.admit_ms_) {
    other.controller_ = nullptr;
  }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept {
    if (this != &other) {
      Release();
      controller_ = other.controller_;
      admit_ms_ = other.admit_ms_;
      other.controller_ = nullptr;
    }
    return *this;
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

  bool holds_slot() const { return controller_ != nullptr; }
  void Release();

 private:
  friend class AdmissionController;
  friend class PendingAdmit;
  AdmissionTicket(AdmissionController* controller, int64_t admit_ms)
      : controller_(controller), admit_ms_(admit_ms) {}
  AdmissionController* controller_ = nullptr;
  // When the slot was granted (injected clock); release reports the hold
  // duration so the controller's wait estimate tracks real service times.
  int64_t admit_ms_ = 0;
};

// Non-blocking admission handle. Resolution happens either at
// AdmitAsync() time (immediate slot, shed, or already-expired deadline)
// or later, inside a ReleaseSlot/PurgeExpired on some other request's
// path. The caller polls state() after advancing the clock or releasing
// capacity, or parks in Wait(); no callback, no helper thread.
class PendingAdmit {
 public:
  enum class State {
    kQueued,    // waiting for a slot
    kAdmitted,  // slot granted; TakeTicket() exactly once
    kShed,      // rejected at entry: queue full
    kExpired,   // deadline passed at entry, while queued, or at purge
  };

  State state() const;
  bool resolved() const { return state() != State::kQueued; }

  // Typed status for a resolved handle: Ok / kResourceExhausted (with the
  // load-aware retry hint in the message) / kDeadlineExceeded.
  Status status() const;

  // Retry-after hint captured when the request was shed; 0 otherwise.
  int64_t retry_after_ms() const;

  // Blocks the calling thread while the handle is queued: until a release
  // grants it a slot, a purge expires it, or its own deadline passes on
  // the injected clock.
  void Wait();

  // Moves the granted slot out; valid exactly once, iff kAdmitted.
  AdmissionTicket TakeTicket();

 private:
  friend class AdmissionController;
  struct Rep;
  explicit PendingAdmit(std::shared_ptr<Rep> rep) : rep_(std::move(rep)) {}
  std::shared_ptr<Rep> rep_;
};

class AdmissionController {
 public:
  // Null clock = SteadyClock.
  explicit AdmissionController(AdmissionOptions options,
                               const Clock* clock = nullptr);

  // Asks for a serving slot before `deadline_ms` (absolute, on the
  // injected clock): immediately resolved or queued (see PendingAdmit).
  // The queue position is real — a queued handle counts against
  // queue_depth until granted or purged.
  PendingAdmit AdmitAsync(int64_t deadline_ms);

  // Purges queued waiters whose deadline has passed; they resolve to
  // kExpired without ever taking a slot. Runs automatically at admission
  // entry and on every slot release; exposed for drivers that advance an
  // injected clock without traffic. Returns the number purged.
  int64_t PurgeExpired();

  int64_t in_flight() const;
  int64_t waiting() const;

  // Load-aware retry hint: the estimated queue wait a new arrival would
  // face — ceil(hold_estimate * (waiting + 1) / max_concurrency) — with
  // options().retry_after_ms as the floor (also returned verbatim before
  // any hold time has been observed).
  int64_t RetryAfterHintMs() const;

  // Current EWMA of slot-hold durations on the injected clock (0 until
  // the first release). Exposed for tests and the load harness report.
  double EstimatedHoldMs() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  friend class AdmissionTicket;
  friend class PendingAdmit;

  void ReleaseSlot(int64_t admit_ms);
  int64_t PurgeExpiredLocked(int64_t now_ms);
  int64_t RetryAfterHintLocked() const;

  const AdmissionOptions options_;
  const Clock* clock_;

  mutable std::mutex mu_;
  std::condition_variable slot_free_;
  // FIFO of queued admissions (blocking and async waiters share it);
  // resolved entries are skipped and dropped lazily. waiting_ counts only
  // still-queued entries.
  std::deque<std::shared_ptr<PendingAdmit::Rep>> queue_;
  int64_t in_flight_ = 0;
  int64_t waiting_ = 0;
  double hold_ewma_ms_ = 0.0;
  // False until the first release seeds the EWMA (a genuine 0 ms hold is
  // a valid seed on a virtual clock and must not look like "no data").
  bool has_hold_ = false;
};

}  // namespace privrec::serve

#endif  // PRIVREC_SERVE_ADMISSION_H_
