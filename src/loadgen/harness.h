// The open-loop load harness: drives a ServeRuntime with a precomputed
// arrival schedule, optionally under a concurrent swap storm, and
// produces the LoadSummary behind BENCH_serve.json.
//
// Two execution modes over the SAME schedule and the SAME runtime code:
//
//   RunVirtual — a single-threaded discrete-event simulation on an
//     injected ManualClock. Requests enter through the runtime's
//     non-blocking BeginAsync/PollAsync/FinishAsync path, so the REAL
//     admission controller (its FIFO queue, shedding, purging and retry
//     hints) decides every request's fate — but no thread ever parks, and
//     time advances only at event boundaries. Service time is a
//     deterministic function of (seed, request index). Consequence: one
//     (seed, spec) pair produces bit-identical shed/expired/degraded
//     counts and latency histograms on every run and platform. Swap
//     storms tick on the same virtual timeline, so "a swap landed between
//     these two arrivals" is part of the reproducible history (only the
//     wall-clock pause per Activate varies).
//
//   RunWall — real threads, real clock, blocking Handle(): the
//     non-deterministic companion used under TSan to prove the admission
//     queue and epoch pinning are race-free at real concurrency. Each
//     thread serves its residue class of the schedule, sleeping until
//     each request's absolute send time (or issuing immediately when
//     behind — lateness is charged to the response, never allowed to
//     thin the schedule).
//
// In both modes latency is measured from the SCHEDULED send time to
// resolution, which is what makes the harness coordinated-omission-safe:
// a stalled server cannot slow the arrival process down, it can only
// make queues (and the recorded latencies) grow.

#ifndef PRIVREC_LOADGEN_HARNESS_H_
#define PRIVREC_LOADGEN_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen/oracle.h"
#include "loadgen/report.h"
#include "loadgen/schedule.h"
#include "serve/clock.h"
#include "serve/runtime.h"

namespace privrec::loadgen {

// Hot-swap storm driven alongside the load: every period the harness
// activates the next artifact of a fixed rotation mixing good
// generations, corrupt files (expected to be rejected + rolled back) and,
// when armed, I/O errors and latency on the artifact read path.
struct SwapStormSpec {
  // <= 0 disables the storm.
  int64_t period_ms = 0;
  // Known-good artifacts, rotated; must be non-empty when enabled.
  std::vector<std::string> good;
  // Corrupt artifacts (bit flips, truncations); may be empty.
  std::vector<std::string> corrupt;
  // Arm fault::FaultInjector on "artifact.read" for two of every six
  // phases.
  bool arm_faults = false;
};

struct LoadRunOptions {
  LoadSpec load;
  SwapStormSpec storm;
  // Virtual service-time model: a slot is held for
  //   base + 0.5 * |users| + U[0, 1)
  // milliseconds, the uniform draw keyed by (seed, request index).
  double service_base_ms = 2.0;
  // Request threads for RunWall.
  int64_t wall_threads = 4;
};

class LoadHarness {
 public:
  // `oracle` may be null (no correctness checking). Both referents must
  // outlive the harness.
  LoadHarness(serve::ServeRuntime* runtime, LoadOracle* oracle,
              LoadRunOptions options);

  // Deterministic virtual-time run; `clock` must be the clock injected
  // into the runtime. The clock is advanced monotonically from its
  // current value, which becomes the run's t=0.
  LoadSummary RunVirtual(serve::ManualClock* clock);

  // Wall-clock run on real threads (see file comment).
  LoadSummary RunWall();

 private:
  // One storm tick: activates rotation step `k`, records pause/reject/
  // rollback accounting into `summary`.
  void StormTick(int64_t k, LoadSummary& summary);
  int64_t ServiceMs(size_t index,
                    const serve::ServeRequest& request) const;
  void Record(const serve::ServeRequest& request,
              const serve::ServeResponse& response, double latency_ms,
              LoadSummary& summary);

  serve::ServeRuntime* runtime_;
  LoadOracle* oracle_;
  LoadRunOptions options_;
};

}  // namespace privrec::loadgen

#endif  // PRIVREC_LOADGEN_HARNESS_H_
