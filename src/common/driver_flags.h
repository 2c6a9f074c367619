// Shared command-line conventions for every bench and example driver:
// the --threads flag (deterministic parallel layer), the observability
// flags (--metrics-json, --trace-out, --metrics-stderr) and the flag
// families of the serving, telemetry, load and stream libraries. One
// helper per family, so the parsing is not copy-pasted per binary and
// unknown-flag typo suggestions (common/flags.h) cover all of them.
//
// Each family parser writes straight into the library's own option
// struct: the struct's member initializers are the only defaults, and a
// flag that is not given leaves its field untouched. Values that only one
// driver reads (--serve-deadline-ms, --statusz-out, --load-report, ...)
// are parsed by that driver, so every other driver rejects them as
// unknown.
//
// Declared under common/ but compiled into the top-layer `privrec_driver`
// target, which may depend on every library.

#ifndef PRIVREC_COMMON_DRIVER_FLAGS_H_
#define PRIVREC_COMMON_DRIVER_FLAGS_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/flags.h"

namespace privrec {

namespace loadgen {
struct LoadRunOptions;
struct SloBudget;
}  // namespace loadgen
namespace serve {
struct ServeRuntimeOptions;
struct ServeTelemetryOptions;
}  // namespace serve
namespace stream {
struct StreamPipelineOptions;
}  // namespace stream

// Consumes the --threads flag (default: hardware concurrency, or the
// PRIVREC_THREADS environment variable if set) and installs it as the
// process-wide thread count for the deterministic parallel layer. Results
// are bit-identical for every value — the flag trades wall-clock only.
int64_t ApplyThreadsFlag(FlagParser& flags);

// RAII export session for the observability flags:
//   --metrics-json=PATH   write a MetricsToJson snapshot on exit
//   --trace-out=PATH      enable the span tracer, write a Chrome
//                         trace_event file on exit (chrome://tracing,
//                         Perfetto)
//   --metrics-stderr=BOOL print the metrics table to stderr on exit
// FromFlags() consumes the flags (so Validate() knows them) and enables
// tracing immediately when --trace-out is set; Finish() — called by the
// destructor at the latest — takes the snapshots and writes the requested
// exports. Export failures print to stderr and never fail the driver.
class ObsSession {
 public:
  static ObsSession FromFlags(FlagParser& flags);

  ObsSession() = default;
  ~ObsSession() { Finish(); }

  ObsSession(ObsSession&& other) noexcept { *this = std::move(other); }
  ObsSession& operator=(ObsSession&& other) noexcept;
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  // Idempotent: exports once, then becomes a no-op.
  void Finish();

 private:
  std::string metrics_json_path_;
  std::string trace_path_;
  bool metrics_stderr_ = false;
  bool finished_ = true;  // armed by FromFlags
};

// The standard driver prologue: --threads plus the obs flags. Keep the
// returned session alive for the driver's whole run; its destructor
// writes the requested exports.
inline ObsSession ApplyDriverFlags(FlagParser& flags) {
  ApplyThreadsFlag(flags);
  return ObsSession::FromFlags(flags);
}

// The serving runtime's admission and reload-breaker knobs:
//   --serve-queue-depth, --serve-max-concurrency,
//   --serve-breaker-failures, --serve-breaker-cooldown-ms.
void ApplyServeFlags(FlagParser& flags, serve::ServeRuntimeOptions* options);

// The telemetry sink's sampling, window and burn-rate knobs:
//   --telemetry-sample-every, --telemetry-slow-ms, --telemetry-window-ms,
//   --telemetry-window-p99-ms, --telemetry-window-shed-rate,
//   --telemetry-burn-lookback, --telemetry-burn-threshold.
void ApplyTelemetryFlags(FlagParser& flags,
                         serve::ServeTelemetryOptions* options);

// The open-loop schedule, swap-storm period, wall-mode threads and SLO
// budget of the load harness:
//   --load-rps, --load-duration-ms, --load-seed, --load-zipf-s,
//   --load-users-per-request, --load-burst-factor, --load-burst-period-ms,
//   --load-burst-duration-ms, --load-swap-period-ms, --load-threads,
//   --load-slo-{p50,p99,p999}-ms, --load-slo-shed-rate,
//   --load-slo-rollback-rate.
void ApplyLoadFlags(FlagParser& flags, loadgen::LoadRunOptions* run,
                    loadgen::SloBudget* budget);

// The stream pipeline's journal, clustering-drift and republish knobs:
//   --stream-wal, --stream-fsync-every, --stream-drift-threshold,
//   --stream-republish-drift, --stream-republish-growth,
//   --stream-republish-every, --stream-min-deltas.
void ApplyStreamFlags(FlagParser& flags,
                      stream::StreamPipelineOptions* options);

}  // namespace privrec

#endif  // PRIVREC_COMMON_DRIVER_FLAGS_H_
