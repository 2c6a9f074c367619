#include "obs/trace.h"

#include <algorithm>

namespace privrec::obs {

namespace internal {

// One per OS thread, owned jointly by the thread (thread_local pointer)
// and the tracer (shared_ptr in the registry), so records survive thread
// exit. `depth` is only touched by the owning thread; `records` is guarded
// by `mu` because Snapshot()/Clear() read it cross-thread.
struct ThreadSpanBuffer {
  int64_t thread_id = 0;
  int64_t depth = 0;
  std::mutex mu;
  std::vector<SpanRecord> records;
};

}  // namespace internal

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::Instance() {
  // Leaked: spans on detached worker threads must never race static
  // destruction.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

internal::ThreadSpanBuffer& Tracer::BufferForThisThread() {
  thread_local std::shared_ptr<internal::ThreadSpanBuffer> buffer;
  if (!buffer) {
    buffer = std::make_shared<internal::ThreadSpanBuffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->thread_id = static_cast<int64_t>(buffers_.size());
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->records.clear();
  }
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      spans.insert(spans.end(), buffer->records.begin(),
                   buffer->records.end());
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.thread_id != b.thread_id) {
                return a.thread_id < b.thread_id;
              }
              return a.start_ns < b.start_ns;
            });
  return spans;
}

SpanScope::SpanScope(const char* name, int64_t chunk) {
  Tracer& tracer = Tracer::Instance();
  if (!tracer.enabled()) return;
  buffer_ = &tracer.BufferForThisThread();
  name_ = name;
  chunk_ = chunk;
  start_ns_ = tracer.NowNs();
  ++buffer_->depth;
}

SpanScope::~SpanScope() {
  if (name_ == nullptr) return;
  Tracer& tracer = Tracer::Instance();
  SpanRecord record;
  record.name = name_;
  record.start_ns = start_ns_;
  record.duration_ns = tracer.NowNs() - start_ns_;
  record.thread_id = buffer_->thread_id;
  record.depth = --buffer_->depth;
  record.chunk = chunk_;
  record.args = std::move(args_);
  std::lock_guard<std::mutex> lock(buffer_->mu);
  buffer_->records.push_back(std::move(record));
}

}  // namespace privrec::obs
