#include "obs/wide_event.h"

#include "obs/export.h"

namespace privrec::obs {

const char* RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk:
      return "ok";
    case RequestOutcome::kShed:
      return "shed";
    case RequestOutcome::kExpired:
      return "expired";
    case RequestOutcome::kInvalid:
      return "invalid";
    case RequestOutcome::kNoEpoch:
      return "no_epoch";
    case RequestOutcome::kError:
      return "error";
  }
  return "error";
}

const char* AdmissionOutcomeName(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kNone:
      return "none";
    case AdmissionOutcome::kImmediate:
      return "immediate";
    case AdmissionOutcome::kQueued:
      return "queued";
    case AdmissionOutcome::kShed:
      return "shed";
    case AdmissionOutcome::kExpired:
      return "expired";
  }
  return "none";
}

uint64_t MixRequestId(uint64_t id) {
  // splitmix64 finalizer. Local copy rather than common/random.h: obs
  // sits below privrec_common in the layering.
  uint64_t z = id + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool SampleWideEvent(const RequestTelemetry& event,
                     const WideEventSampling& sampling) {
  if (event.outcome != RequestOutcome::kOk) return true;
  if (event.degraded) return true;
  if (sampling.slow_ms >= 0.0 && event.latency_ms >= sampling.slow_ms) {
    return true;
  }
  if (sampling.sample_every <= 1) return true;
  return MixRequestId(event.request_id) %
             static_cast<uint64_t>(sampling.sample_every) ==
         0;
}

std::string RequestTelemetryToJson(const RequestTelemetry& event) {
  std::string out = "{\"type\": \"request\"";
  out += ", \"id\": " + std::to_string(event.request_id);
  out += ", \"arrival_ms\": " + std::to_string(event.arrival_ms);
  out += ", \"resolve_ms\": " + std::to_string(event.resolve_ms);
  out += ", \"latency_ms\": " + JsonNumber(event.latency_ms);
  out += std::string(", \"outcome\": \"") +
         RequestOutcomeName(event.outcome) + "\"";
  out += std::string(", \"admission\": \"") +
         AdmissionOutcomeName(event.admission) + "\"";
  out += ", \"queue_ms\": " + std::to_string(event.queue_wait_ms);
  out += ", \"reconstruct_ms\": " + JsonNumber(event.reconstruct_ms);
  out += ", \"epoch\": " + std::to_string(event.epoch);
  out += ", \"artifact_seed\": " + std::to_string(event.artifact_seed);
  out += ", \"shard_count\": " + std::to_string(event.shard_count);
  out += ", \"users\": " + std::to_string(event.users);
  out += ", \"top_n\": " + std::to_string(event.top_n);
  out += ", \"deadline_ms\": " + std::to_string(event.deadline_ms);
  out += std::string(", \"degraded\": ") +
         (event.degraded ? "true" : "false");
  out += ", \"users_degraded\": " + std::to_string(event.users_degraded);
  out += ", \"retry_after_ms\": " + std::to_string(event.retry_after_ms);
  out += ", \"bound_blocks_visited\": " +
         std::to_string(event.bound_blocks_visited);
  out += ", \"bound_blocks_total\": " +
         std::to_string(event.bound_blocks_total);
  out += "}";
  return out;
}

}  // namespace privrec::obs
