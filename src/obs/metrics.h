// Process-wide metrics registry: counters, gauges and fixed-bucket
// histograms for every layer of the pipeline.
//
// Naming: metrics are registered under dotted `privrec.<module>.<name>`
// keys (e.g. "privrec.dp.epsilon_spent", "privrec.parallel.chunks_per_
// thread") so exports group naturally by module.
//
// Fast path: call sites resolve a metric ONCE (function-local static
// reference) and then update it lock-free — a counter increment is a
// single relaxed atomic add, a gauge set a relaxed store, a histogram
// observation one bucket add plus the sum/count updates. The registry
// mutex is touched only at registration and snapshot time. Instrumentation
// sits at record/release granularity (per chunk, per cluster, per trial),
// never inside per-element inner loops.
//
// Determinism contract: the registry never reads the wall clock and never
// draws randomness; collecting metrics cannot perturb RNG streams,
// FP reduction order, or any recommendation output (obs_test pins this).
// Snapshot/export value types live in obs/snapshot.h.

#ifndef PRIVREC_OBS_METRICS_H_
#define PRIVREC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/snapshot.h"

namespace privrec::obs {

// Upper-bound helpers for histogram registration. The returned vector is
// strictly increasing; values above the last bound land in an implicit
// overflow bucket.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count);

// The shared latency preset: log-spaced bounds, five buckets per decade
// from 0.01 ms to 100 s. One preset for every latency histogram (serve
// request latency, load-harness response latency, swap pauses) so their
// quantiles are computed over identical bucket grids and stay comparable
// across BENCH_*.json records.
std::vector<double> LatencyBucketsMs();

class Counter {
 public:
  void Increment() { Add(1); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void ResetValue() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double x) { value_.store(x, std::memory_order_relaxed); }
  // Accumulating update (CAS loop; gauges are low-frequency).
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void ResetValue() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: bucket b counts observations <= bounds[b]; one
// extra overflow bucket catches everything above the last bound. Bounds
// are fixed at registration, so Observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double x);

  const std::vector<double>& bounds() const { return bounds_; }
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t bucket_count(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  // bounds().size() + 1 (the last bucket is the overflow bucket).
  size_t num_buckets() const { return buckets_.size(); }
  void ResetValue();

  HistogramSample Sample(const std::string& name) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// The process-wide registry. Get* registers on first use and returns a
// reference with stable address for the lifetime of the process;
// re-registering the same name returns the same object (histogram bounds
// from the first registration win).
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds);

  // A point-in-time copy of every registered metric, sorted by name.
  MetricsSnapshot Snapshot() const;

  // Zeroes every value but keeps registrations (cached references stay
  // valid) — test isolation between cases sharing the process registry.
  void ResetValues();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

inline Counter& GetCounter(const std::string& name) {
  return MetricsRegistry::Instance().GetCounter(name);
}
inline Gauge& GetGauge(const std::string& name) {
  return MetricsRegistry::Instance().GetGauge(name);
}
inline Histogram& GetHistogram(const std::string& name,
                               std::vector<double> bounds) {
  return MetricsRegistry::Instance().GetHistogram(name, std::move(bounds));
}

}  // namespace privrec::obs

#endif  // PRIVREC_OBS_METRICS_H_
