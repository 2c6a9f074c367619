// Rolling time-windowed aggregates and the SLO burn-rate tracker.
//
// RollingWindows slices a request stream into fixed-width windows on a
// caller-supplied timeline (the serve runtime's injected clock — virtual
// time in the load harness, wall time in production) and computes, per
// window: request/outcome counts, rps, shed rate, and p50/p99/p999 on the
// shared LatencyBucketsMs() grid. Each closed window is checked against a
// WindowBudget; the fraction of breaching windows over a lookback ring is
// the SLO burn rate, and closing a window while the burn rate exceeds the
// threshold emits a WindowAlert.
//
// Like the other value types in this directory, nothing here touches the
// metrics registry, the tracer, a clock, or an RNG: time enters exclusively
// through the now_ms arguments, so one deterministic event stream yields
// one byte-identical window series. Counter/gauge wiring lives in the
// serve layer (serve/telemetry.h).

#ifndef PRIVREC_OBS_ROLLING_WINDOW_H_
#define PRIVREC_OBS_ROLLING_WINDOW_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/latency_recorder.h"
#include "obs/wide_event.h"

namespace privrec::obs {

// Per-window SLO budget. Negative ceilings disable a line (a budget with
// every line disabled never breaches). The burn rate is the fraction of
// breaching windows among the last `lookback` closed windows; an alert
// fires on every window close while burn_rate > burn_threshold.
struct WindowBudget {
  double p99_ms = -1.0;
  double max_shed_rate = -1.0;
  int64_t lookback = 8;
  double burn_threshold = 0.25;
};

struct WindowStats {
  int64_t index = 0;
  // [start_ms, start_ms + width_ms) on the caller's timeline.
  int64_t start_ms = 0;
  int64_t width_ms = 0;

  int64_t requests = 0;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  int64_t errors = 0;  // invalid / no-epoch / other
  int64_t degraded = 0;

  // Derived on close, from the window's LatencyRecorder.
  double rps = 0.0;
  double shed_rate = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  bool breach = false;
  std::string breach_reason;
};

struct WindowAlert {
  int64_t window_index = 0;
  // Close time of the window that pushed the burn rate over threshold.
  int64_t at_ms = 0;
  double burn_rate = 0.0;
  std::string reason;
};

// A closed-window trajectory plus the alerts it produced — the unit that
// BENCH_serve.json records and statusz renders.
struct WindowSeries {
  int64_t width_ms = 0;
  std::vector<WindowStats> windows;
  std::vector<WindowAlert> alerts;
  // Oldest windows evicted after the ring filled (alerts are never
  // evicted).
  int64_t dropped_windows = 0;
};

class RollingWindows {
 public:
  explicit RollingWindows(int64_t width_ms, WindowBudget budget = {},
                          size_t max_windows = 4096);

  // Folds one resolved request into the window owning `now_ms`, closing
  // any windows that ended at or before it first. Calls must be
  // monotone in now_ms (the serve telemetry sink serializes them).
  void Observe(int64_t now_ms, RequestOutcome outcome, bool degraded,
               double latency_ms);

  // Closes every window whose end is <= now_ms (empty windows included —
  // an idle window is part of the trajectory and of the burn lookback).
  // Returns the number of windows closed.
  int64_t AdvanceTo(int64_t now_ms);

  // Closes the currently open window, if any (end of run).
  void Flush();

  const WindowSeries& series() const { return series_; }
  // Burn rate over the current lookback ring.
  double burn_rate() const;
  // Total breaching windows closed so far.
  int64_t breaches() const { return breaches_; }
  int64_t observed() const { return observed_; }

 private:
  void CloseCurrent();

  const int64_t width_ms_;
  const size_t max_windows_;
  const WindowBudget budget_;

  bool open_ = false;
  WindowStats current_;
  LatencyRecorder current_latency_;
  std::deque<char> breach_ring_;  // 1 = breach, newest at back
  int64_t breaches_ = 0;
  int64_t observed_ = 0;
  WindowSeries series_;
};

// Compact JSON renderers shared by the load report, the telemetry JSONL stream, and
// statusz.
std::string WindowStatsToJson(const WindowStats& window);
std::string WindowAlertToJson(const WindowAlert& alert);
// {"width_ms": W, "dropped_windows": D, "windows": [...], "alerts":
// [...]}.
std::string WindowSeriesToJson(const WindowSeries& series);

}  // namespace privrec::obs

#endif  // PRIVREC_OBS_ROLLING_WINDOW_H_
