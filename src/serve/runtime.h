// ServeRuntime: the resilient request-serving loop over the artifact
// serving engine. It composes the three mechanisms of this layer:
//
//   - ArtifactSwapper: epoch-based hot swap; requests pin their epoch via
//     shared_ptr, reloads validate/gate/probe off the request path and
//     roll back without ever exposing a bad artifact;
//   - AdmissionController: per-request deadlines, a bounded wait queue,
//     and load shedding with typed rejections and a retry-after hint;
//   - CircuitBreaker: reload/backing-store protection — after repeated
//     reload failures the breaker opens and later reloads fail fast until
//     a half-open probe (with bounded retries) succeeds.
//
// Shed or expired requests are not necessarily empty-handed: with
// `degraded_fallback` on, the response still carries the global-average
// fallback ranking (core/degradation kLoadShed tier) computed from the
// pinned epoch — the caller gets both the typed rejection AND a usable
// degraded answer, mirroring the degradation contract of the offline
// recommenders.
//
// There is one request path: the BeginAsync/PollAsync/FinishAsync state
// machine. Handle() is its blocking driver, so validation, the fallback
// tier and wide-event emission exist once for both entry points.

#ifndef PRIVREC_SERVE_RUNTIME_H_
#define PRIVREC_SERVE_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/degradation.h"
#include "graph/ids.h"
#include "obs/wide_event.h"
#include "serve/admission.h"
#include "serve/circuit_breaker.h"
#include "serve/clock.h"
#include "serve/swapper.h"

namespace privrec::serve {

class ServeTelemetry;
struct RuntimeIntrospection;

struct ServeRuntimeOptions {
  SwapPolicy swap;
  AdmissionOptions admission;
  CircuitBreakerOptions breaker;
  // Answer shed/expired requests from the global-average fallback tier of
  // the pinned epoch instead of returning the bare rejection.
  bool degraded_fallback = true;
  // Null = SteadyClock; tests inject a ManualClock shared with the
  // admission controller and the breaker.
  const Clock* clock = nullptr;
  // Optional per-request telemetry sink (serve/telemetry.h), not owned;
  // must outlive the runtime. Null = no wide events.
  ServeTelemetry* telemetry = nullptr;
};

struct ServeRequest {
  std::vector<graph::NodeId> users;
  int64_t top_n = 10;
  // Relative deadline budget, measured on the runtime's clock from the
  // moment Handle() is entered.
  int64_t deadline_ms = 1000;
  // Wide-event identity: 0 lets the runtime assign the next id from its
  // sequence; nonzero ids (the load harness stamps schedule indices) are
  // taken verbatim so sampled-event sets reproduce across runs, modes,
  // and thread counts.
  uint64_t request_id = 0;
};

struct ServeResponse {
  // kOk: `batch` is the personalized answer. kResourceExhausted /
  // kDeadlineExceeded: the request was shed or expired — `batch` holds
  // the kLoadShed fallback ranking iff degraded_fallback was on.
  // kInvalidArgument: malformed request (top_n <= 0 or a user id outside
  // the artifact). kFailedPrecondition: no artifact activated yet.
  Status status = Status::Ok();
  core::RecommendedBatch batch;
  // Generation identity of the epoch that (fully) served this response.
  int64_t epoch = 0;
  uint64_t artifact_seed = 0;
  // True when `batch` came from the global-average fallback tier.
  bool degraded_fallback = false;
  // Nonzero on kResourceExhausted: hint for when to retry.
  int64_t retry_after_ms = 0;
  // The id this request was served under (assigned or taken from the
  // request) — the join key into the wide-event JSONL stream.
  uint64_t request_id = 0;
};

// One in-flight request (see ServeRuntime::BeginAsync). The epoch is
// pinned at Begin time: a swap that lands while this request is queued
// does not change what it is served from.
struct AsyncServe {
  ServeRequest request;
  // When the request entered the runtime (injected clock); the latency
  // recorded at FinishAsync is measured from here, so queue wait is
  // charged to the request (coordinated-omission-safe accounting).
  int64_t arrival_ms = 0;
  std::shared_ptr<EpochSnapshot> epoch;
  std::optional<PendingAdmit> pending;
  AdmissionTicket ticket;
  ServeResponse response;
  // True once `response` is final (immediate rejection, validation error,
  // shed/expired resolution, or a completed FinishAsync).
  bool done = false;
  // True once a slot has been granted and the ticket taken.
  bool admitted = false;
  // Wide event under construction; emitted to the runtime's telemetry
  // sink exactly once, at whichever point `done` becomes true.
  obs::RequestTelemetry telemetry;
};

class ServeRuntime {
 public:
  explicit ServeRuntime(ServeRuntimeOptions options);

  // Activates (first call) or hot-swaps (later calls) the artifact at
  // `path`, routed through the reload circuit breaker: while the breaker
  // is open this fails fast with kResourceExhausted without touching the
  // backing store.
  Status Activate(const std::string& path);

  // Serves one request against the currently pinned epoch, blocking the
  // calling thread while it is queued for admission: BeginAsync at the
  // clock's now, PendingAdmit::Wait if queued, PollAsync, FinishAsync.
  // Thread-safe; concurrent calls during an Activate() finish on
  // whichever epoch they pinned at entry.
  ServeResponse Handle(const ServeRequest& request);

  // The non-blocking request path, for single-threaded drivers (the
  // open-loop load harness): BeginAsync pins the epoch, validates, and
  // enters admission without ever parking a thread. The returned
  // operation is either already done (rejection, validation error,
  // empty-users fast path), admitted (serve it with FinishAsync), or
  // queued (poll after advancing the clock / releasing capacity).
  //
  // Validation: `top_n <= 0` and a user id outside [0, num_users) are
  // kInvalidArgument (no slot, no fallback — the request is malformed,
  // not overload); an empty `users` list is answered OK with an empty
  // batch (carrying the pinned epoch's identity) without taking a
  // serving slot; `deadline_ms <= 0` expires at admission and follows the
  // normal kDeadlineExceeded path.
  AsyncServe BeginAsync(const ServeRequest& request, int64_t arrival_ms);

  // Advances a queued operation: purges expired waiters, takes the ticket
  // on grant, finalizes shed/expired responses. Returns true when the
  // operation is ready — either done, or admitted and awaiting
  // FinishAsync.
  bool PollAsync(AsyncServe& op);

  // Serves an admitted operation from its pinned epoch and releases the
  // slot. For an already-done operation this just returns the response.
  ServeResponse FinishAsync(AsyncServe& op);

  const ArtifactSwapper& swapper() const { return swapper_; }
  const CircuitBreaker& reload_breaker() const { return reload_breaker_; }
  const AdmissionController& admission() const { return admission_; }

  const Clock* clock() const { return clock_; }
  const ServeTelemetry* telemetry() const { return options_.telemetry; }

  // Live status snapshot (serve/statusz.h renders it as text or JSON):
  // pinned epoch identity, shard map, breaker/admission state, ε gauges,
  // telemetry windows. `now_ms` < 0 reads the runtime's clock.
  RuntimeIntrospection Introspect(int64_t now_ms = -1) const;

 private:
  // The wide-event id for a request: the request's own id when nonzero,
  // else the next value of the runtime's sequence.
  uint64_t ResolveRequestId(const ServeRequest& request) {
    if (request.request_id != 0) return request.request_id;
    return next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  ServeResponse Fallback(Status status,
                         const std::shared_ptr<EpochSnapshot>& epoch,
                         const ServeRequest& request,
                         int64_t retry_after_ms);
  // Marks `op` done and hands its wide event to the telemetry sink
  // (no-op without a sink).
  void Complete(AsyncServe& op);

  ServeRuntimeOptions options_;
  const Clock* clock_;
  ArtifactSwapper swapper_;
  AdmissionController admission_;
  CircuitBreaker reload_breaker_;
  std::atomic<uint64_t> next_request_id_{0};
};

}  // namespace privrec::serve

#endif  // PRIVREC_SERVE_RUNTIME_H_
