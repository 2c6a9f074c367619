// Per-request wide events for the serving path.
//
// A RequestTelemetry record is the "one event per request" unit of the
// serving telemetry subsystem: every field an operator needs to explain a
// single slow or rejected request — identity (deterministic request id,
// epoch, provenance seed), admission outcome and queue wait, the shard
// count, the degradation tier, and a queue/reconstruct latency
// breakdown. The serve runtime fills one per request and hands it to a
// sink (serve/telemetry.h); this header owns only the plain value type,
// the deterministic sampling rule, and the JSONL rendering, and never
// touches the metrics registry or the tracer.
//
// Determinism contract: nothing here reads a clock or draws randomness.
// Sampling is a pure function of the record (keyed off a mixed request
// id), so a virtual-time load run emits a bit-identical JSONL stream on
// every run and at every thread count.

#ifndef PRIVREC_OBS_WIDE_EVENT_H_
#define PRIVREC_OBS_WIDE_EVENT_H_

#include <cstdint>
#include <string>

namespace privrec::obs {

// Terminal classification of one served request, mirroring the serve
// runtime's status contract (runtime.h): kShed = kResourceExhausted,
// kExpired = kDeadlineExceeded, kInvalid = kInvalidArgument, kNoEpoch =
// kFailedPrecondition (no artifact activated yet), kError = anything
// else.
enum class RequestOutcome {
  kOk,
  kShed,
  kExpired,
  kInvalid,
  kNoEpoch,
  kError,
};

const char* RequestOutcomeName(RequestOutcome outcome);

// How the request got through (or bounced off) admission control.
// kNone = never entered admission (validation error, empty batch, no
// epoch).
enum class AdmissionOutcome {
  kNone,
  kImmediate,
  kQueued,
  kShed,
  kExpired,
};

const char* AdmissionOutcomeName(AdmissionOutcome outcome);

struct RequestTelemetry {
  // Deterministic request id: taken from the request when nonzero,
  // otherwise assigned from the runtime's sequence. The load harness
  // stamps schedule indices so ids are stable across modes and thread
  // counts.
  uint64_t request_id = 0;

  // Timestamps on the runtime's injected clock (virtual time in the load
  // harness). latency_ms = resolve_ms - arrival_ms, i.e. queue wait is
  // charged to the request.
  int64_t arrival_ms = 0;
  int64_t resolve_ms = 0;
  double latency_ms = 0.0;

  RequestOutcome outcome = RequestOutcome::kOk;
  AdmissionOutcome admission = AdmissionOutcome::kNone;

  // Latency breakdown, all on the injected clock: time parked in the
  // admission queue and recommender reconstruction time.
  int64_t queue_wait_ms = 0;
  double reconstruct_ms = 0.0;

  // Identity of the epoch that served (or would have served) the
  // request.
  int64_t epoch = 0;
  uint64_t artifact_seed = 0;
  int64_t shard_count = 0;

  // Request shape.
  int64_t users = 0;
  int64_t top_n = 0;
  int64_t deadline_ms = 0;

  // Degradation tier: true when the response carried the global-average
  // fallback ranking.
  bool degraded = false;
  int64_t users_degraded = 0;
  int64_t retry_after_ms = 0;
};

// Deterministic sampling policy: every non-OK, degraded, or slow request
// is always kept; OK requests keep 1 in `sample_every` (<= 1 keeps
// everything), selected by a hash of the request id — never by a counter
// or an RNG stream, so the kept set is identical across runs and thread
// counts.
struct WideEventSampling {
  int64_t sample_every = 16;
  // OK requests at or above this latency are always kept; < 0 disables
  // the slow-path override.
  double slow_ms = 100.0;
};

// splitmix64 finalizer: decorrelates sequential request ids so 1-in-K
// selection is unbiased across the id space.
uint64_t MixRequestId(uint64_t id);

bool SampleWideEvent(const RequestTelemetry& event,
                     const WideEventSampling& sampling);

// One JSONL line (no trailing newline): {"type": "request", ...}.
std::string RequestTelemetryToJson(const RequestTelemetry& event);

}  // namespace privrec::obs

#endif  // PRIVREC_OBS_WIDE_EVENT_H_
