#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace privrec::obs {

std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double b = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

std::vector<double> LatencyBucketsMs() {
  // Five log-spaced buckets per decade across seven decades:
  // 0.01 ms .. 1e5 ms (100 s). Bounds are computed as exact powers so the
  // grid is identical on every platform.
  std::vector<double> bounds;
  bounds.reserve(36);
  for (int i = 0; i <= 35; ++i) {
    bounds.push_back(0.01 *
                     std::pow(10.0, static_cast<double>(i) / 5.0));
  }
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::Observe(double x) {
  // Inclusive upper bounds (bucket b counts x <= bounds[b]), matching the
  // Prometheus `le` convention: the first bound not smaller than x.
  const size_t b = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) -
      bounds_.begin());
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::ResetValue() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

HistogramSample Histogram::Sample(const std::string& name) const {
  HistogramSample s;
  s.name = name;
  s.bounds = bounds_;
  s.counts.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    s.counts.push_back(b.load(std::memory_order_relaxed));
  }
  s.count = count();
  s.sum = sum();
  return s;
}

MetricsRegistry& MetricsRegistry::Instance() {
  // Leaked so metrics updated from detached worker threads never race
  // static destruction (same pattern as the parallel layer's pool).
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back(histogram->Sample(name));
  }
  return snapshot;  // std::map iteration is already name-sorted
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->ResetValue();
  for (auto& [name, gauge] : gauges_) gauge->ResetValue();
  for (auto& [name, histogram] : histograms_) histogram->ResetValue();
}

}  // namespace privrec::obs
