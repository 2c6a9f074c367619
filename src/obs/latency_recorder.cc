#include "obs/latency_recorder.h"

#include <algorithm>

#include "obs/export.h"
#include "obs/metrics.h"

namespace privrec::obs {

LatencyRecorder::LatencyRecorder()
    : bounds_(LatencyBucketsMs()), counts_(bounds_.size() + 1, 0) {}

void LatencyRecorder::Observe(double ms) {
  const size_t b = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), ms) -
      bounds_.begin());
  ++counts_[b];
  ++count_;
  sum_ += ms;
}

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  for (size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyRecorder::Quantile(double q) const {
  return HistogramQuantile(Sample(""), q);
}

HistogramSample LatencyRecorder::Sample(const std::string& name) const {
  HistogramSample s;
  s.name = name;
  s.bounds = bounds_;
  s.counts = counts_;
  s.count = count_;
  s.sum = sum_;
  return s;
}

}  // namespace privrec::obs
