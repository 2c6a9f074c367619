#include "serve/runtime.h"

#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/macros.h"
#include "core/recommendation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/telemetry.h"

namespace privrec::serve {

namespace {

obs::Counter& RequestCounter() {
  static obs::Counter& c = obs::GetCounter("privrec.serve.requests_total");
  return c;
}

obs::Counter& FallbackCounter() {
  static obs::Counter& c = obs::GetCounter("privrec.serve.fallback_total");
  return c;
}

obs::Histogram& RequestLatency() {
  static obs::Histogram& h = obs::GetHistogram(
      "privrec.serve.request_ms", obs::LatencyBucketsMs());
  return h;
}

// Rejects a malformed request (bad top_n or user id); Ok otherwise.
Status Validate(const ServeRequest& request, const EpochSnapshot& epoch) {
  if (request.top_n <= 0) {
    return Status::InvalidArgument("top_n must be positive, got " +
                                   std::to_string(request.top_n));
  }
  const int64_t num_users = epoch.engine.num_users();
  for (graph::NodeId u : request.users) {
    if (u < 0 || u >= num_users) {
      return Status::InvalidArgument(
          "user id " + std::to_string(u) + " out of range [0, " +
          std::to_string(num_users) + ")");
    }
  }
  return Status::Ok();
}

}  // namespace

ServeRuntime::ServeRuntime(ServeRuntimeOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SteadyClock::Instance()),
      swapper_(options.swap),
      admission_(options.admission, clock_),
      reload_breaker_("artifact_reload", options.breaker, clock_) {}

Status ServeRuntime::Activate(const std::string& path) {
  return reload_breaker_.Run([&] { return swapper_.Activate(path); });
}

ServeResponse ServeRuntime::Fallback(
    Status status, const std::shared_ptr<EpochSnapshot>& epoch,
    const ServeRequest& request, int64_t retry_after_ms) {
  ServeResponse response;
  response.status = std::move(status);
  response.retry_after_ms = retry_after_ms;
  response.epoch = epoch->epoch;
  response.artifact_seed = epoch->artifact_seed;
  if (!options_.degraded_fallback) return response;

  // The global-average row is a pure function of the frozen release, so
  // the fallback tier needs neither admission nor the serve mutex.
  const std::vector<double>& row = epoch->engine.global_average();
  core::RecommendationList list = core::TopNFromDense(row, request.top_n);
  response.batch.lists.assign(request.users.size(), list);
  response.batch.degradation.assign(
      request.users.size(),
      core::DegradationInfo{core::DegradationReason::kLoadShed});
  response.batch.report.users_degraded =
      static_cast<int64_t>(request.users.size());
  response.degraded_fallback = true;
  FallbackCounter().Increment();
  return response;
}

void ServeRuntime::Complete(AsyncServe& op) {
  op.done = true;
  if (options_.telemetry == nullptr) return;
  FinalizeRequestTelemetry(op.telemetry, op.response, clock_->NowMs());
  options_.telemetry->Record(op.telemetry);
}

ServeResponse ServeRuntime::Handle(const ServeRequest& request) {
  obs::SpanScope span("serve.request");
  AsyncServe op = BeginAsync(request, clock_->NowMs());
  span.Arg("request_id", std::to_string(op.response.request_id));
  if (op.epoch != nullptr) {
    span.Arg("epoch", std::to_string(op.epoch->epoch));
  }
  if (!op.done && !op.admitted) {
    op.pending->Wait();
    PollAsync(op);
  }
  return FinishAsync(op);
}

AsyncServe ServeRuntime::BeginAsync(const ServeRequest& request,
                                    int64_t arrival_ms) {
  RequestCounter().Increment();
  AsyncServe op;
  op.request = request;
  op.arrival_ms = arrival_ms;

  const uint64_t request_id = ResolveRequestId(request);
  op.response.request_id = request_id;
  op.telemetry.request_id = request_id;
  op.telemetry.arrival_ms = arrival_ms;
  op.telemetry.users = static_cast<int64_t>(request.users.size());
  op.telemetry.top_n = request.top_n;
  op.telemetry.deadline_ms = request.deadline_ms;

  // Pin the epoch for the whole request: a concurrent swap cannot change
  // what this batch is served from, and the snapshot outlives the swap.
  op.epoch = swapper_.AcquireMutable();
  if (op.epoch == nullptr) {
    op.response.status =
        Status::FailedPrecondition("no artifact activated yet");
    Complete(op);
    return op;
  }
  op.response.epoch = op.epoch->epoch;
  op.response.artifact_seed = op.epoch->artifact_seed;
  op.telemetry.shard_count = op.epoch->engine.shard_count();

  op.response.status = Validate(request, *op.epoch);
  if (!op.response.status.ok() || request.users.empty()) {
    // Malformed, or nothing to rank: answered without a serving slot.
    Complete(op);
    return op;
  }

  op.pending =
      admission_.AdmitAsync(arrival_ms + request.deadline_ms);
  PollAsync(op);
  return op;
}

bool ServeRuntime::PollAsync(AsyncServe& op) {
  if (op.done || op.admitted) return true;
  PendingAdmit::State state = op.pending->state();
  if (state == PendingAdmit::State::kQueued) {
    // A clock advance may have expired this (or an earlier) waiter
    // without any release to notice it.
    if (admission_.PurgeExpired() == 0) return false;
    state = op.pending->state();
    if (state == PendingAdmit::State::kQueued) return false;
  }
  op.telemetry.queue_wait_ms = clock_->NowMs() - op.arrival_ms;
  if (state == PendingAdmit::State::kAdmitted) {
    op.ticket = op.pending->TakeTicket();
    op.admitted = true;
    return true;
  }
  // Shed (with the hint captured at rejection) or expired.
  op.response = Fallback(op.pending->status(), op.epoch, op.request,
                         op.pending->retry_after_ms());
  op.response.request_id = op.telemetry.request_id;
  Complete(op);
  return true;
}

ServeResponse ServeRuntime::FinishAsync(AsyncServe& op) {
  if (op.done) return op.response;
  PRIVREC_CHECK_MSG(op.admitted,
                    "FinishAsync on an operation that is still queued");
  const int64_t serve_start_ms = clock_->NowMs();
  EpochSnapshot& epoch = *op.epoch;
  if (epoch.recommender->ConcurrentSafe()) {
    op.response.batch =
        epoch.recommender->Recommend(op.request.users, op.request.top_n);
  } else {
    // Fresh-noise mechanisms consume their RNG stream per invocation and
    // must see exactly one call per request, serialized.
    std::lock_guard<std::mutex> lock(epoch.serve_mu);
    op.response.batch =
        epoch.recommender->Recommend(op.request.users, op.request.top_n);
  }
  op.ticket.Release();
  const int64_t end_ms = clock_->NowMs();
  op.telemetry.reconstruct_ms =
      static_cast<double>(end_ms - serve_start_ms);
  RequestLatency().Observe(static_cast<double>(end_ms - op.arrival_ms));
  Complete(op);
  return op.response;
}

}  // namespace privrec::serve
