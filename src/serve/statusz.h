// The statusz surface: a point-in-time introspection snapshot of a
// serving runtime, rendered as a human-readable text page or a JSON
// document.
//
// RuntimeIntrospection gathers what an operator needs at a glance —
// pinned epoch identity (epoch number, provenance seed, ε, ledger id),
// the model/shard shape, swap and breaker state, admission occupancy, the
// ε gauges from the metrics registry, and (when a telemetry sink is
// attached) the live window quantiles, the burn rate and recent alerts.
// It is produced on demand by ServeRuntime::Introspect, periodically by
// dynamic_service --statusz-every, and at end of run by bench_serve_load
// --statusz-out.
//
// Reading the snapshot takes the same short locks as any other request
// (epoch pin, admission counters, telemetry mutex) — it never stops the
// serving path. The epoch/admission/breaker state lives in the runtime,
// not in the obs layer.

#ifndef PRIVREC_SERVE_STATUSZ_H_
#define PRIVREC_SERVE_STATUSZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/rolling_window.h"
#include "obs/snapshot.h"

namespace privrec::serve {

struct RuntimeIntrospection {
  // Clock reading the snapshot was taken at (the runtime's injected
  // clock — virtual time in the load harness).
  int64_t now_ms = 0;

  // ---- Pinned epoch + model shape (has_epoch == false before the first
  // successful Activate; the identity fields are then meaningless).
  bool has_epoch = false;
  int64_t epoch = 0;
  uint64_t artifact_seed = 0;
  double epsilon = 0.0;
  std::string ledger_id;
  int64_t num_users = 0;
  int64_t num_items = 0;
  int64_t num_clusters = 0;
  bool mapped = false;
  int64_t shard_count = 0;
  // Users owned per shard (index = shard id); empty for 1-shard models.
  std::vector<int64_t> shard_users;

  // ---- Swap + breaker state.
  int64_t swaps = 0;
  int64_t rollbacks = 0;
  std::string last_swap_error;
  std::string breaker_state;
  int64_t breaker_failures = 0;
  int64_t breaker_retry_after_ms = 0;

  // ---- Admission occupancy.
  int64_t admission_in_flight = 0;
  int64_t admission_waiting = 0;
  int64_t admission_max_concurrency = 0;
  int64_t admission_queue_depth = 0;
  double admission_hold_ms = 0.0;
  int64_t admission_retry_hint_ms = 0;

  // ---- Registry slices: the privacy-budget gauges (privrec.dp.*) and
  // the serve counters (privrec.serve.*).
  std::vector<obs::GaugeSample> epsilon_gauges;
  std::vector<obs::CounterSample> serve_counters;

  // ---- Reconstruction kernels: active SIMD dispatch level ("scalar" /
  // "avx2", see kernels/dispatch.h).
  std::string kernel_dispatch;

  // ---- Telemetry (has_telemetry == false when no sink is attached).
  bool has_telemetry = false;
  int64_t telemetry_recorded = 0;
  int64_t telemetry_sampled = 0;
  int64_t telemetry_dropped = 0;
  int64_t window_breaches = 0;
  double burn_rate = 0.0;
  bool has_last_window = false;
  obs::WindowStats last_window;
  // Most recent alerts, newest last (capped).
  std::vector<obs::WindowAlert> recent_alerts;
};

// Renderers. Text is the human statusz page; JSON nests the same fields
// for machine consumption (%.17g doubles, like every privrec exporter).
std::string StatuszText(const RuntimeIntrospection& status);
std::string StatuszJson(const RuntimeIntrospection& status);

}  // namespace privrec::serve

#endif  // PRIVREC_SERVE_STATUSZ_H_
