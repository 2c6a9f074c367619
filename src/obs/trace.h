// Phase-scoped span tracer.
//
// PRIVREC_SPAN("phase") opens an RAII span that records, when tracing is
// enabled, a {name, start, duration, thread id, depth, chunk id} record
// into a per-thread buffer. Records from all threads merge into one
// hierarchical span tree (nesting is carried by per-thread depth plus
// containment of [start, start+duration) intervals) and export to the
// Chrome trace_event format (obs/export.h), loadable in chrome://tracing
// or https://ui.perfetto.dev.
//
// Cost: tracing is off by default; a span constructor then costs one
// relaxed atomic load. Enabled spans cost two steady_clock reads and one
// short critical section on the owning thread's buffer mutex (uncontended
// except against a concurrent snapshot).
//
// Determinism: the tracer reads the steady clock but never feeds anything
// back into computation — enabling tracing cannot change results.

#ifndef PRIVREC_OBS_TRACE_H_
#define PRIVREC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/snapshot.h"

namespace privrec::obs {

namespace internal {
struct ThreadSpanBuffer;
}  // namespace internal

class Tracer {
 public:
  static Tracer& Instance();

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Drops every recorded span (buffers of live threads stay registered).
  void Clear();

  // All completed spans so far, sorted by (thread id, start time). Spans
  // still open at snapshot time are not included.
  std::vector<SpanRecord> Snapshot() const;

  // -- used by SpanScope ------------------------------------------------
  internal::ThreadSpanBuffer& BufferForThisThread();
  int64_t NowNs() const;

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<internal::ThreadSpanBuffer>> buffers_;
};

class SpanScope {
 public:
  explicit SpanScope(const char* name, int64_t chunk = -1);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // Attaches a key/value annotation to this span (request id, epoch,
  // shard ids, ...). No-op when tracing was off at entry, so the
  // disabled-path cost of an annotated span stays one relaxed load plus
  // one branch per Arg.
  void Arg(const char* key, std::string value) {
    if (name_ == nullptr) return;
    args_.emplace_back(key, std::move(value));
  }

 private:
  const char* name_ = nullptr;  // null when tracing was off at entry
  int64_t start_ns_ = 0;
  int64_t chunk_ = -1;
  internal::ThreadSpanBuffer* buffer_ = nullptr;
  std::vector<std::pair<std::string, std::string>> args_;
};

#define PRIVREC_OBS_CONCAT_INNER_(a, b) a##b
#define PRIVREC_OBS_CONCAT_(a, b) PRIVREC_OBS_CONCAT_INNER_(a, b)
#define PRIVREC_SPAN(name)                                        \
  ::privrec::obs::SpanScope PRIVREC_OBS_CONCAT_(privrec_span_,    \
                                                __LINE__)(name)
#define PRIVREC_SPAN_CHUNK(name, chunk)                           \
  ::privrec::obs::SpanScope PRIVREC_OBS_CONCAT_(privrec_span_,    \
                                                __LINE__)(name, chunk)

}  // namespace privrec::obs

#endif  // PRIVREC_OBS_TRACE_H_
