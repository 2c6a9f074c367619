// Deterministic fault-injection harness.
//
// Library and service code declares named fault points at the places where
// the real world can fail (file opens, reads, allocations, noise sampling).
// Tests and operators arm those points with a FaultSpec — programmatically,
// via a flag string, or via the PRIVREC_FAULTS environment variable — and
// the code under test observes injected I/O errors, short reads, NaN/Inf
// poisoning or allocation failures exactly where they were requested.
//
// Determinism: faults fire by hit count (the Nth time the point is reached)
// or by a seeded splitmix64 coin per hit. No wall clock, no global entropy;
// a test that arms the same spec twice sees the same failures twice.
//
// Cost: an unarmed harness costs one relaxed atomic load per probe (probes
// sit at record/release granularity, never in per-element loops).
//
// Spec string grammar (';'-separated):
//   point=kind            fire on every hit
//   point=kind@N          fire on the Nth hit only (1-based)
//   point=kind@N+         fire on every hit from the Nth on
//   point=kind@N+K        fire on hits N .. N+K-1
//   point=kind%P:SEED     fire each hit with probability P (seeded coin)
// kinds: io_error, short_read, nan, inf, bad_alloc, latency
// e.g. PRIVREC_FAULTS="graph_io.open=io_error@1+2;cluster.noisy_averages=nan"

#ifndef PRIVREC_COMMON_FAULT_INJECTION_H_
#define PRIVREC_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace privrec::fault {

enum class FaultKind {
  kNone = 0,
  kIoError,    // simulated open/read/write failure
  kShortRead,  // input stream ends early (truncated file)
  kNaN,        // poison a floating-point value with quiet NaN
  kInf,        // poison a floating-point value with +infinity
  kBadAlloc,   // simulated allocation failure
  kLatency,    // the operation succeeds but stalls (slow disk, cold cache)
};

// Stable lowercase name used by the spec grammar ("io_error", "nan", ...).
const char* FaultKindName(FaultKind kind);

// Inverse of FaultKindName; returns false for unknown names.
bool ParseFaultKind(const std::string& name, FaultKind* out);

// How an armed point decides whether a given hit fires.
struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  // Fires on hits with 1-based index in [first_hit, first_hit + count).
  int64_t first_hit = 1;
  int64_t count = std::numeric_limits<int64_t>::max();
  // If < 1.0, an eligible hit additionally fires only when a splitmix64
  // coin seeded from (seed, hit index) lands below `probability`.
  double probability = 1.0;
  uint64_t seed = 0;
};

// Process-wide registry of armed fault points. Thread-safe; a singleton so
// fault points deep inside the library need no plumbing.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  // Arms `point` with `spec`, replacing any previous spec and resetting the
  // point's hit counter.
  void Arm(const std::string& point, const FaultSpec& spec);

  // Arms `point` to fire `kind` exactly once, on the nth hit (1-based).
  void ArmNth(const std::string& point, FaultKind kind, int64_t nth);

  void Disarm(const std::string& point);

  // Disarms everything and zeroes all hit counters.
  void Reset();

  // Arms points from a spec string (grammar in the file comment). Partial
  // application on error: specs before the malformed clause stay armed.
  Status ArmFromSpec(const std::string& spec);

  // Arms from the PRIVREC_FAULTS environment variable; no-op if unset.
  Status ArmFromEnv();

  // Hits recorded for `point` since it was last armed (unarmed points do
  // not count hits — the fast path skips them).
  int64_t HitCount(const std::string& point) const;

  // True iff at least one point is armed.
  bool AnyArmed() const {
    return any_armed_.load(std::memory_order_relaxed);
  }

  // Slow path: records a hit and returns the fault to inject (kNone when
  // the point is unarmed or this hit does not fire). Use fault::Hit below.
  FaultKind HitSlow(const char* point);

 private:
  FaultInjector() = default;

  struct PointState {
    FaultSpec spec;
    int64_t hits = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, PointState> points_;
  std::atomic<bool> any_armed_{false};
};

// The probe placed at fault points: returns the fault to inject at this
// hit, kNone when nothing is armed.
inline FaultKind Hit(const char* point) {
  FaultInjector& injector = FaultInjector::Instance();
  if (!injector.AnyArmed()) return FaultKind::kNone;
  return injector.HitSlow(point);
}

// Applies a kNaN/kInf fault at `point` to `value`; other kinds (and unarmed
// points) leave it unchanged.
double MaybePoison(const char* point, double value);

// RAII helper for tests: disarms everything on scope exit so a failing test
// cannot leak armed faults into the next one.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection() = default;
  ScopedFaultInjection(const std::string& point, const FaultSpec& spec) {
    FaultInjector::Instance().Arm(point, spec);
  }
  ~ScopedFaultInjection() { FaultInjector::Instance().Reset(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace privrec::fault

#endif  // PRIVREC_COMMON_FAULT_INJECTION_H_
