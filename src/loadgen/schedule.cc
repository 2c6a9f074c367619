#include "loadgen/schedule.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace privrec::loadgen {

namespace {

bool InBurst(const LoadSpec& spec, double t_ms) {
  if (spec.burst_period_ms <= 0 || spec.burst_duration_ms <= 0 ||
      spec.burst_factor <= 1.0) {
    return false;
  }
  const double phase =
      std::fmod(t_ms, static_cast<double>(spec.burst_period_ms));
  return phase < static_cast<double>(spec.burst_duration_ms);
}

}  // namespace

std::vector<ScheduledRequest> BuildSchedule(const LoadSpec& spec) {
  std::vector<ScheduledRequest> schedule;
  if (spec.rps <= 0.0 || spec.duration_ms <= 0 || spec.num_users <= 0 ||
      spec.users_per_request <= 0) {
    return schedule;
  }
  schedule.reserve(static_cast<size_t>(
      spec.rps * static_cast<double>(spec.duration_ms) / 1000.0 * 1.5));

  Rng root(spec.seed);
  Rng arrivals = root.Fork(0x41525256);  // "ARRV"
  Rng shape = root.Fork(0x53485045);     // "SHPE"

  const double duration = static_cast<double>(spec.duration_ms);
  double t = 0.0;
  while (true) {
    // Rate per millisecond at the current point of the burst waveform.
    const double rate =
        spec.rps * (InBurst(spec, t) ? spec.burst_factor : 1.0) / 1000.0;
    t += arrivals.Exponential(rate);
    if (t >= duration) break;

    ScheduledRequest r;
    r.send_ms = static_cast<int64_t>(t);
    r.request.users.reserve(static_cast<size_t>(spec.users_per_request));
    for (int64_t u = 0; u < spec.users_per_request; ++u) {
      r.request.users.push_back(static_cast<graph::NodeId>(
          shape.Zipf(static_cast<uint64_t>(spec.num_users), spec.zipf_s)));
    }
    r.request.top_n =
        shape.UniformInt(static_cast<int64_t>(1),
                         std::max<int64_t>(1, spec.top_n));
    r.request.deadline_ms = shape.Bernoulli(kShortDeadlineFraction)
                                ? spec.deadline_short_ms
                                : kDeadlineLongMs;
    // Wide-event id = 1-based schedule index: a property of the
    // schedule, not of execution order, so the sampled-event set is
    // identical in virtual and wall mode at every thread count.
    r.request.request_id = static_cast<uint64_t>(schedule.size()) + 1;
    schedule.push_back(std::move(r));
  }
  return schedule;
}

}  // namespace privrec::loadgen
