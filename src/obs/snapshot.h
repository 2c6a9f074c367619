// Plain value types shared by the metrics registry, the span tracer and
// the exporters.

#ifndef PRIVREC_OBS_SNAPSHOT_H_
#define PRIVREC_OBS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace privrec::obs {

struct CounterSample {
  std::string name;
  int64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  // Upper bounds; counts has bounds.size() + 1 entries (the last bucket is
  // the overflow bucket).
  std::vector<double> bounds;
  std::vector<int64_t> counts;
  int64_t count = 0;
  double sum = 0.0;
};

// Every registered metric at one point in time, each section sorted by
// name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  bool Empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

// One completed span from the phase tracer. Timestamps are nanoseconds on
// the steady clock, relative to the tracer's epoch (first enable).
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  // Small dense id assigned per OS thread in first-span order.
  int64_t thread_id = 0;
  // Nesting depth within the owning thread (0 = top level).
  int64_t depth = 0;
  // Chunk index from the parallel layer, or -1 outside chunked regions.
  int64_t chunk = -1;
  // Key/value annotations attached via SpanScope::Arg (request id, epoch,
  // shard ids, ...), exported verbatim into the Chrome trace "args" block
  // so traces link to the wide-event JSONL stream.
  std::vector<std::pair<std::string, std::string>> args{};
};

}  // namespace privrec::obs

#endif  // PRIVREC_OBS_SNAPSHOT_H_
