// Deterministic open-loop arrival schedules for the serving load harness.
//
// The schedule is computed IN FULL before any request is issued: every
// request gets an absolute send time on the run's virtual timeline, drawn
// from a Poisson process whose instantaneous rate follows the configured
// burst waveform. Because send times never depend on how fast the system
// under test responds, the generator cannot be back-pressured into
// coordinated omission — a slow server makes requests LATE (and the
// lateness is charged to their measured latency), it never makes the
// schedule thinner.
//
// Per-request shape (users, top_n, deadline class) is drawn from forked
// substreams of the same seed, so one (seed, spec) pair names exactly one
// workload, bit-for-bit, on every platform.

#ifndef PRIVREC_LOADGEN_SCHEDULE_H_
#define PRIVREC_LOADGEN_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "serve/runtime.h"

namespace privrec::loadgen {

// Deadline mix: this fraction of traffic runs on LoadSpec's tight budget
// (`deadline_short_ms`), the rest on kDeadlineLongMs.
constexpr double kShortDeadlineFraction = 0.25;
constexpr int64_t kDeadlineLongMs = 400;

struct LoadSpec {
  // Base arrival rate, requests per second (open loop, Poisson).
  double rps = 2000.0;
  // Virtual length of the arrival window; the run itself extends past it
  // until every issued request resolves.
  int64_t duration_ms = 2000;
  // Master seed: names the whole workload (arrivals + request shapes).
  uint64_t seed = 1;

  // User popularity: ids in [0, num_users) drawn Zipf(s); s = 0 is
  // uniform, s around 1 concentrates traffic on a hot head.
  int64_t num_users = 60;
  double zipf_s = 1.1;
  int64_t users_per_request = 4;

  // top_n is drawn uniformly in [1, top_n].
  int64_t top_n = 5;

  // The tight deadline of the kShortDeadlineFraction slice.
  int64_t deadline_short_ms = 30;

  // Burst waveform: within every `burst_period_ms` window the first
  // `burst_duration_ms` run at rps * burst_factor. period <= 0 disables
  // bursts.
  double burst_factor = 4.0;
  int64_t burst_period_ms = 500;
  int64_t burst_duration_ms = 50;
};

struct ScheduledRequest {
  // Absolute send time on the virtual timeline (run starts at 0).
  int64_t send_ms = 0;
  serve::ServeRequest request;
};

// Materializes the full schedule, sorted by send time. Empty when
// rps <= 0 or duration_ms <= 0.
std::vector<ScheduledRequest> BuildSchedule(const LoadSpec& spec);

}  // namespace privrec::loadgen

#endif  // PRIVREC_LOADGEN_SCHEDULE_H_
