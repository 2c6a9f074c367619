// Measurement primitives of the wall-clock benchmark: seeded open-loop
// arrival schedules with ns send times, an open-loop runner that times
// each request from when it was due, and exact quantiles over raw ns
// samples. Nothing here knows about the library under test; bench.cc
// supplies the request body as a callback.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

// A failed request counts as missing every latency limit: it enters the
// latency sample set with this value.
inline constexpr int64_t kFailedLatencyNs =
    std::numeric_limits<int64_t>::max();

// Poisson arrivals at `rate_per_s` over [0, duration_ns): exponential
// inter-arrival gaps drawn in double precision and kept in ns, so high
// rates do not bunch into clock ticks. Same (seed, rate, duration) gives
// the same schedule.
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     int64_t duration_ns);

// Maps Zipf(s) ranks over `n` users onto user ids through a seeded
// permutation, so the hottest users are not simply the lowest ids.
class ZipfUsers {
 public:
  ZipfUsers(int64_t n, double s, uint64_t seed);
  // The i-th draw of the stream (a pure function of seed and i).
  int64_t User(int64_t i) const;

 private:
  int64_t n_;
  double s_;
  uint64_t seed_;
  std::vector<int64_t> permutation_;
};

// The 1-based nearest rank ceil(q * n) of the q-quantile in n samples.
int64_t NearestRank(double q, int64_t n);

// The exact q-quantile (0 <= q <= 1) of `samples` by the nearest-rank
// rule: the smallest value with at least ceil(q * n) samples at or below
// it. Sorts `samples` in place. Empty input returns 0.
int64_t ExactQuantile(std::vector<int64_t>& samples, double q);

// The highest percentile among p50, p90, p99, p99.9 and p99.99 that has
// at least `min_beyond` samples above it in a set of `n`; 0 when even
// p50 has too few.
double HighestResolvedPercentile(int64_t n, int64_t min_beyond = 10);

// Median of a small vector of doubles (copies; empty returns 0).
double Median(std::vector<double> values);

struct LatencySummary {
  int64_t samples = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  // Highest percentile with >= 10 samples beyond it (see above).
  double resolved_percentile = 0.0;
};

// Summarizes ns samples (kFailedLatencyNs entries sort last and read as
// +inf ms, which is how a failure misses any limit).
LatencySummary Summarize(std::vector<int64_t> samples_ns);

enum class Outcome { kOk, kDegraded, kShed, kExpired, kError };

struct PhaseCounts {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  int64_t error = 0;
  int64_t failed() const { return shed + expired + error; }
  void Add(Outcome outcome);
  std::string ToJson() const;
};

struct OpenLoopResult {
  // Per request, from its due time to completion (kFailedLatencyNs on
  // failure), in schedule order.
  std::vector<int64_t> latency_ns;
  // Per request, how late the generator handed it to a request thread.
  std::vector<int64_t> lateness_ns;
  // Per request, the time spent inside `serve` (no queueing or wake-up).
  std::vector<int64_t> service_ns;
  PhaseCounts counts;
  // Latency over the last fifth of the phase was far above the first
  // fifth: the server fell behind the arrival rate.
  bool backlog_growing = false;
};

// Runs an open loop: one generator thread sleeps until each due time in
// `send_ns` (offsets from the start) and hands the request index to a
// pool of `threads` blocking request threads; `serve(index)` runs the
// request and classifies it. Requests that find every thread busy wait
// in the hand-off queue, and that wait is part of their latency.
OpenLoopResult RunOpenLoop(const std::vector<int64_t>& send_ns, int threads,
                           const std::function<Outcome(int64_t)>& serve);

// The q-quantile of each consecutive run of at least `chunk` samples (in
// schedule order, so each run is a time window), in ms, and the median
// over those windows. One stalled window on a shared host moves this far
// less than it moves the quantile of the whole phase. Fewer than `chunk`
// samples form one window.
double WindowedQuantileMs(const std::vector<int64_t>& latency_ns, double q,
                          int64_t chunk);

struct ClosedLoopResult {
  PhaseCounts counts;
  // Completions per second: overall, and the median over windows.
  double rate_per_s = 0.0;
  double median_window_rate_per_s = 0.0;
};

// Saturation: `threads` callers each send their next request as soon as
// the previous one returns, for `duration_ns`; rates are taken over
// `windows` equal windows of the phase.
ClosedLoopResult RunClosedLoop(int threads, int64_t duration_ns, int windows,
                               const std::function<Outcome(int64_t)>& serve);

// Detects a growing backlog from the per-request latencies of one phase.
bool BacklogGrowing(const std::vector<int64_t>& latency_ns);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
