// Exporters for metrics snapshots and span traces.
//
// Three formats:
//   MetricsToTable   — human-readable aligned table (typically to stderr)
//   MetricsToJson    — one JSON document: {"counters": {...}, "gauges":
//                      {...}, "histograms": {name: {bounds, counts, count,
//                      sum}}}; doubles printed with %.17g so ε accounting
//                      round-trips exactly
//   SpansToChromeTrace — Chrome trace_event JSON ("X" complete events,
//                      microsecond timestamps), loadable in
//                      chrome://tracing and https://ui.perfetto.dev
//
// These operate on the plain value types of obs/snapshot.h.

#ifndef PRIVREC_OBS_EXPORT_H_
#define PRIVREC_OBS_EXPORT_H_

#include <ostream>
#include <string>
#include <vector>

#include "obs/snapshot.h"

namespace privrec::obs {

void MetricsToTable(const MetricsSnapshot& snapshot, std::ostream& out);

// Quantile estimate (q in [0, 1]) from a fixed-bucket histogram sample of
// non-negative observations (latencies), by linear interpolation inside
// the bucket holding the target rank. Observations in the overflow bucket
// cannot be interpolated; a quantile landing there reports the last
// bound. Returns 0 for an empty sample. q is clamped into [0, 1]; a NaN
// q reads as 0 (the minimum) rather than poisoning the scan.
double HistogramQuantile(const HistogramSample& sample, double q);

// The JSON emission conventions every privrec exporter shares, public so
// the wide-event / window / load-report emitters produce byte-identical
// formatting:
//   JsonNumber — shortest-round-trip doubles: integral values print
//     without an exponent, everything else with %.17g (ε accounting must
//     survive the JSON round trip).
//   JsonEscape — escapes quotes, backslashes and control characters for
//     embedding arbitrary strings (span args, alert reasons) in JSON.
std::string JsonNumber(double x);
std::string JsonEscape(const std::string& s);

std::string MetricsToJson(const MetricsSnapshot& snapshot);

std::string SpansToChromeTrace(const std::vector<SpanRecord>& spans);

// Writes `contents` to `path`, returning false (with a diagnostic in
// *error if non-null) on failure.
bool WriteTextFile(const std::string& path, const std::string& contents,
                   std::string* error = nullptr);

}  // namespace privrec::obs

#endif  // PRIVREC_OBS_EXPORT_H_
