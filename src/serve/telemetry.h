// ServeTelemetry: the per-request telemetry sink of the serving runtime.
//
// The runtime (serve/runtime.h) fills one obs::RequestTelemetry wide
// event per request and hands it here. The sink
//
//   - folds every event into a ring of rolling windows
//     (obs/rolling_window.h) on the runtime's injected clock, feeding the
//     SLO burn-rate tracker;
//   - keeps the deterministically sampled subset (every non-OK /
//     degraded / slow request plus 1-in-K of OK, keyed off the request
//     id), one copy per event, and renders the JSONL stream on demand,
//     interleaving request lines with the alert lines the windows emit;
//   - mirrors the aggregate signals into the metrics registry:
//     privrec.serve.telemetry_events_total / telemetry_sampled_total,
//     privrec.serve.slo_window_breaches_total / slo_burn_alerts_total,
//     and the privrec.serve.slo_burn_rate gauge.
//
// Thread-safe: Record() serializes on one mutex (wall-mode request
// threads contend only for the short fold; the recommender work stays
// outside). Determinism: the sink never reads a clock — time enters only
// through the events — so a virtual-time run produces a byte-identical
// JSONL stream and window series on every run and thread count.

#ifndef PRIVREC_SERVE_TELEMETRY_H_
#define PRIVREC_SERVE_TELEMETRY_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/rolling_window.h"
#include "obs/wide_event.h"
#include "serve/runtime.h"

namespace privrec::serve {

struct ServeTelemetryOptions {
  // 1-in-K sampling of OK requests; <= 1 keeps everything.
  int64_t sample_every = 16;
  // OK requests at or above this latency are always kept; < 0 disables.
  double slow_ms = 100.0;
  // Rolling-window width on the runtime clock.
  int64_t window_ms = 250;
  // Per-window SLO budget + burn-rate alerting (see WindowBudget).
  obs::WindowBudget budget;
  // Cap on retained sampled events (the JSONL stream stops growing once
  // reached; drops are counted, never silent). The sink reserves room for
  // all of them up front, so retaining never copies the events already
  // kept; pages are only touched as events arrive.
  size_t max_events = 65536;
  // Cap on retained closed windows (oldest evicted first).
  size_t max_windows = 4096;
};

class ServeTelemetry {
 public:
  explicit ServeTelemetry(ServeTelemetryOptions options = {});

  ServeTelemetry(const ServeTelemetry&) = delete;
  ServeTelemetry& operator=(const ServeTelemetry&) = delete;

  // Folds one finalized event (windows advance to event.resolve_ms
  // first, so alert lines precede the request lines they chronologically
  // preceded).
  void Record(const obs::RequestTelemetry& event);

  // Closes windows that ended at or before now_ms without recording an
  // event (idle periods still burn down the lookback ring).
  void AdvanceTo(int64_t now_ms);

  // End of run: advance to now_ms and close the final partial window.
  void Flush(int64_t now_ms);

  // Copies, safe against concurrent Record().
  obs::WindowSeries series() const;
  std::vector<obs::RequestTelemetry> sampled_events() const;
  // The JSONL stream: one line per sampled request plus one line per
  // burn-rate alert, in emission order (an alert precedes the request
  // lines recorded after it fired; alerts after the event cap come
  // last). Rendered from the retained events on each call.
  std::string EventsJsonl() const;

  int64_t recorded() const;
  int64_t sampled() const;
  int64_t dropped_events() const;
  int64_t window_breaches() const;
  int64_t burn_alerts() const;
  double burn_rate() const;

  const ServeTelemetryOptions& options() const { return options_; }

 private:
  // Mirrors newly closed windows / alerts into metrics and notes where
  // each new alert falls in the JSONL stream. Caller holds mu_.
  void DrainWindowSignalsLocked();

  const ServeTelemetryOptions options_;
  mutable std::mutex mu_;
  obs::RollingWindows windows_;
  std::vector<obs::RequestTelemetry> events_;
  // Per alert of windows_.series().alerts (which are never evicted): how
  // many events were retained when it fired, i.e. its JSONL position.
  std::vector<size_t> alert_at_;
  size_t alerts_seen_ = 0;
  size_t windows_seen_ = 0;
  int64_t recorded_ = 0;
  int64_t sampled_ = 0;
  int64_t dropped_ = 0;
  int64_t breaches_ = 0;
};

// Completes a wide event from a finished response — outcome/admission
// classification, epoch identity, degradation tier, latency — at
// `resolve_ms` on the caller's clock.
void FinalizeRequestTelemetry(obs::RequestTelemetry& event,
                              const ServeResponse& response,
                              int64_t resolve_ms);

}  // namespace privrec::serve

#endif  // PRIVREC_SERVE_TELEMETRY_H_
