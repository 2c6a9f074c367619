// A plain (non-atomic) latency histogram over the shared
// LatencyBucketsMs() grid, owned by one thread: the load harness's
// report and each open telemetry window record into one. Its quantiles
// are computed over the same grid as the registry's latency histograms
// (privrec.serve.request_ms), so the numbers stay comparable.

#ifndef PRIVREC_OBS_LATENCY_RECORDER_H_
#define PRIVREC_OBS_LATENCY_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/snapshot.h"

namespace privrec::obs {

class LatencyRecorder {
 public:
  LatencyRecorder();

  void Observe(double ms);
  void Merge(const LatencyRecorder& other);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  // Quantile via HistogramQuantile (linear interpolation within the
  // log-spaced bucket holding the target rank).
  double Quantile(double q) const;

  HistogramSample Sample(const std::string& name) const;

 private:
  std::vector<double> bounds_;
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  double sum_ = 0.0;
};

}  // namespace privrec::obs

#endif  // PRIVREC_OBS_LATENCY_RECORDER_H_
