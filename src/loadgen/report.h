// Load-run accounting and the BENCH_serve.json emitter. Latencies are
// recorded into obs::LatencyRecorder.
//
// The JSON layout follows the BENCH_parallel.json / BENCH_artifact.json
// convention: a context block (git revision, library version, mode) so a
// committed record identifies the code it measured, the resolved spec,
// the measured results, and the SLO verdict.

#ifndef PRIVREC_LOADGEN_REPORT_H_
#define PRIVREC_LOADGEN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen/schedule.h"
#include "obs/latency_recorder.h"
#include "obs/rolling_window.h"
#include "obs/snapshot.h"

namespace privrec::loadgen {

struct LoadSummary {
  // Request accounting. scheduled = ok + shed + expired + other_errors.
  int64_t scheduled = 0;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  int64_t other_errors = 0;
  // Responses that carried the degraded global-average fallback tier
  // (subset of shed + expired).
  int64_t degraded = 0;

  int64_t correctness_violations = 0;
  std::string first_violation;

  // Scheduled-send -> resolution, for every request (0 for a request shed
  // in the same millisecond it was sent). ok_latency covers kOk only.
  obs::LatencyRecorder latency;
  obs::LatencyRecorder ok_latency;

  // Swap storm accounting. Pauses are wall-clock per Activate() call —
  // the one intentionally non-deterministic section of the report.
  int64_t swap_attempts = 0;
  int64_t swap_ok = 0;
  int64_t swap_rejected = 0;
  int64_t rollbacks = 0;
  obs::LatencyRecorder swap_pause_ms;

  // Largest load-aware retry hint observed on a shed response.
  int64_t max_retry_after_ms = 0;

  // Virtual (or wall) makespan of the run and the derived rates.
  double makespan_ms = 0.0;
  double achieved_rps = 0.0;
  double shed_rate = 0.0;
  double rollback_rate = 0.0;

  // Fills the derived rate fields from the raw tallies.
  void Finalize();
};

struct SloBudget {
  // Latency ceilings over ALL responses, ms; < 0 disables a line.
  double p50_ms = -1.0;
  double p99_ms = -1.0;
  double p999_ms = -1.0;
  // Ceilings on shed / rollback fractions; < 0 disables.
  double max_shed_rate = -1.0;
  double max_rollback_rate = -1.0;
  // Zero-tolerance lines, always on unless explicitly relaxed.
  bool require_no_violations = true;
  int64_t min_ok = 1;
};

struct SloVerdict {
  bool pass = true;
  std::vector<std::string> failures;
};

SloVerdict EvaluateSlo(const SloBudget& budget,
                       const LoadSummary& summary);

// Telemetry side of the report: wide-event accounting plus the
// closed-window trajectory (rps / shed rate / quantiles per window) and
// burn-rate alerts, copied out of a serve::ServeTelemetry sink after the
// run is flushed. Optional — a null pointer renders "telemetry": null.
struct TelemetryReport {
  int64_t recorded = 0;        // every request seen by the sink
  int64_t sampled = 0;         // wide events kept by the sampler
  int64_t dropped = 0;         // events past the in-memory cap
  int64_t sample_every = 16;   // 1-in-K policy the run used
  int64_t window_ms = 250;     // rolling-window width
  double burn_rate = 0.0;      // final burn rate after the last window
  obs::WindowSeries series;    // closed windows + alerts
};

// Renders the full BENCH_serve.json document. `mode` is "virtual" or
// "wall"; `threads` the request-thread count (1 for virtual);
// swap_period_ms <= 0 means the storm was off. `shards` is the shard
// count K of the .pvram artifacts the run served. `telemetry`, when
// non-null, adds the per-window SLO trajectory and alert list.
std::string LoadReportJson(const LoadSpec& spec, int64_t swap_period_ms,
                           const LoadSummary& summary,
                           const SloBudget& budget,
                           const SloVerdict& verdict,
                           const std::string& mode, int64_t threads,
                           int64_t shards = 1,
                           const TelemetryReport* telemetry = nullptr);

}  // namespace privrec::loadgen

#endif  // PRIVREC_LOADGEN_REPORT_H_
