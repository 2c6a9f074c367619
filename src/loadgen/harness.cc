#include "loadgen/harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/random.h"

namespace privrec::loadgen {

namespace {

double WallMsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

LoadHarness::LoadHarness(serve::ServeRuntime* runtime, LoadOracle* oracle,
                         LoadRunOptions options)
    : runtime_(runtime), oracle_(oracle), options_(std::move(options)) {}

int64_t LoadHarness::ServiceMs(size_t index,
                               const serve::ServeRequest& request) const {
  // The model's per-user cost and jitter width, ms.
  constexpr double kPerUserMs = 0.5;
  constexpr double kJitterMs = 1.0;
  // Keyed by (seed, index) so the virtual service time of request i never
  // depends on execution order.
  Rng rng(SplitMix64(options_.load.seed ^
                     (0x53455256ull << 8) ^  // "SERV"
                     static_cast<uint64_t>(index)));
  const double ms =
      options_.service_base_ms +
      kPerUserMs * static_cast<double>(request.users.size()) +
      rng.UniformDouble() * kJitterMs;
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(ms)));
}

void LoadHarness::Record(const serve::ServeRequest& request,
                         const serve::ServeResponse& response,
                         double latency_ms, LoadSummary& summary) {
  summary.latency.Observe(latency_ms);
  switch (response.status.code()) {
    case StatusCode::kOk:
      ++summary.ok;
      summary.ok_latency.Observe(latency_ms);
      break;
    case StatusCode::kResourceExhausted:
      ++summary.shed;
      break;
    case StatusCode::kDeadlineExceeded:
      ++summary.expired;
      break;
    default:
      ++summary.other_errors;
      break;
  }
  if (response.degraded_fallback) ++summary.degraded;
  summary.max_retry_after_ms =
      std::max(summary.max_retry_after_ms, response.retry_after_ms);
  if (oracle_ != nullptr) {
    std::string violation = oracle_->Check(request, response);
    if (!violation.empty()) {
      ++summary.correctness_violations;
      if (summary.first_violation.empty()) {
        summary.first_violation = std::move(violation);
      }
    }
  }
}

void LoadHarness::StormTick(int64_t k, LoadSummary& summary) {
  const SwapStormSpec& storm = options_.storm;
  if (storm.good.empty()) return;
  auto good = [&](int64_t i) {
    return storm.good[static_cast<size_t>(i) % storm.good.size()];
  };
  auto corrupt = [&](int64_t i) -> std::string {
    if (storm.corrupt.empty()) return good(i);
    return storm.corrupt[static_cast<size_t>(i) % storm.corrupt.size()];
  };

  // Six-phase rotation, mirroring the chaos soak: good, corrupt, good,
  // corrupt, armed io_error over a good file, armed latency over a good
  // file. Corrupt phases and the armed io_error MUST be rejected; the
  // armed latency stalls the read of an intact artifact, so the swap may
  // succeed or be breaker-rejected — never publish garbage.
  std::string path;
  bool armed = false;
  switch (k % 6) {
    case 0:
      path = good(k);
      break;
    case 1:
      path = corrupt(k);
      break;
    case 2:
      path = good(k + 1);
      break;
    case 3:
      path = corrupt(k + 1);
      break;
    case 4:
      path = good(k);
      if (storm.arm_faults) {
        fault::FaultInjector::Instance().Arm(
            "artifact.read", {fault::FaultKind::kIoError, 1, 1});
        armed = true;
      }
      break;
    case 5:
      path = good(k + 1);
      if (storm.arm_faults) {
        fault::FaultInjector::Instance().Arm(
            "artifact.read", {fault::FaultKind::kLatency, 1, 2});
        armed = true;
      }
      break;
  }

  const int64_t rollbacks_before = runtime_->swapper().rollbacks();
  const auto pause_start = std::chrono::steady_clock::now();
  Status swapped = runtime_->Activate(path);
  summary.swap_pause_ms.Observe(WallMsSince(pause_start));
  if (armed) fault::FaultInjector::Instance().Reset();

  ++summary.swap_attempts;
  if (swapped.ok()) {
    ++summary.swap_ok;
  } else {
    ++summary.swap_rejected;
  }
  summary.rollbacks += runtime_->swapper().rollbacks() - rollbacks_before;
}

LoadSummary LoadHarness::RunVirtual(serve::ManualClock* clock) {
  LoadSummary summary;
  const std::vector<ScheduledRequest> schedule =
      BuildSchedule(options_.load);
  summary.scheduled = static_cast<int64_t>(schedule.size());

  // The run's t=0 on the shared runtime clock.
  const int64_t t0 = clock->NowMs();
  constexpr int64_t kNever = INT64_MAX;

  struct Op {
    serve::AsyncServe async;
    int64_t send_ms = 0;  // absolute clock time
  };
  std::vector<Op> ops;
  ops.reserve(schedule.size());

  // (completion time, op index): the index keeps equal-time pops in
  // arrival order, so the event sequence is a total order.
  using Event = std::pair<int64_t, size_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
      completions;
  std::deque<size_t> queued;

  size_t next_arrival = 0;
  int64_t storm_k = 0;
  int64_t next_swap = options_.storm.period_ms > 0
                          ? t0 + options_.storm.period_ms
                          : kNever;

  auto resolve = [&](size_t idx) {
    Op& op = ops[idx];
    const double latency =
        static_cast<double>(clock->NowMs() - op.send_ms);
    Record(op.async.request, op.async.response, latency, summary);
  };

  // Drains the wait queue after anything that can change admission state
  // (a released slot, an advanced clock): admitted ops get a completion
  // event, shed/expired ops resolve now.
  auto poll_queued = [&] {
    for (auto it = queued.begin(); it != queued.end();) {
      Op& op = ops[*it];
      if (!runtime_->PollAsync(op.async)) {
        ++it;
        continue;
      }
      if (op.async.admitted) {
        completions.emplace(
            clock->NowMs() + ServiceMs(*it, op.async.request), *it);
      } else {
        resolve(*it);
      }
      it = queued.erase(it);
    }
  };

  while (next_arrival < schedule.size() || !completions.empty() ||
         !queued.empty()) {
    const int64_t t_completion =
        completions.empty() ? kNever : completions.top().first;
    const int64_t t_arrival = next_arrival < schedule.size()
                                  ? t0 + schedule[next_arrival].send_ms
                                  : kNever;
    // The storm runs only while load is still arriving.
    const int64_t t_swap = next_arrival < schedule.size() ? next_swap
                                                          : kNever;
    // A queued op can expire with no other event pending.
    int64_t t_deadline = kNever;
    for (size_t idx : queued) {
      t_deadline = std::min(
          t_deadline, ops[idx].send_ms + ops[idx].async.request.deadline_ms);
    }
    const int64_t t =
        std::min(std::min(t_completion, t_arrival),
                 std::min(t_swap, t_deadline));
    if (t > clock->NowMs()) clock->Set(t);

    // At one instant: finish running requests first (their slots free
    // before anything new happens), then swap, then admit arrivals.
    while (!completions.empty() && completions.top().first <= t) {
      const size_t idx = completions.top().second;
      completions.pop();
      runtime_->FinishAsync(ops[idx].async);
      resolve(idx);
      poll_queued();  // the released slot may have been handed on
    }

    if (t == next_swap && t_swap != kNever) {
      StormTick(storm_k++, summary);
      next_swap += options_.storm.period_ms;
    }

    while (next_arrival < schedule.size() &&
           t0 + schedule[next_arrival].send_ms <= t) {
      const ScheduledRequest& scheduled = schedule[next_arrival];
      ++next_arrival;
      const size_t idx = ops.size();
      ops.push_back(Op{});
      Op& op = ops.back();
      op.send_ms = t0 + scheduled.send_ms;
      op.async = runtime_->BeginAsync(scheduled.request, op.send_ms);
      if (op.async.done) {
        resolve(idx);
      } else if (op.async.admitted) {
        completions.emplace(
            clock->NowMs() + ServiceMs(idx, op.async.request), idx);
      } else {
        queued.push_back(idx);
      }
    }

    // Deadline-only events (and any clock advance) resolve here.
    poll_queued();
  }

  summary.makespan_ms = static_cast<double>(clock->NowMs() - t0);
  summary.Finalize();
  return summary;
}

LoadSummary LoadHarness::RunWall() {
  LoadSummary summary;
  const std::vector<ScheduledRequest> schedule =
      BuildSchedule(options_.load);
  summary.scheduled = static_cast<int64_t>(schedule.size());
  const int64_t threads =
      std::max<int64_t>(1, options_.wall_threads);

  const auto start = std::chrono::steady_clock::now();
  std::mutex mu;  // guards `summary` merges
  std::atomic<bool> load_done{false};

  auto worker = [&](int64_t me) {
    LoadSummary local;
    for (size_t i = static_cast<size_t>(me); i < schedule.size();
         i += static_cast<size_t>(threads)) {
      const ScheduledRequest& scheduled = schedule[i];
      const auto target =
          start + std::chrono::milliseconds(scheduled.send_ms);
      // Open loop: sleep until the scheduled send; when behind, fire
      // immediately and let the lateness show up in the latency.
      std::this_thread::sleep_until(target);
      serve::ServeResponse response = runtime_->Handle(scheduled.request);
      const double latency =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - target)
              .count();
      Record(scheduled.request, response, std::max(0.0, latency), local);
    }
    std::lock_guard<std::mutex> lock(mu);
    summary.ok += local.ok;
    summary.shed += local.shed;
    summary.expired += local.expired;
    summary.other_errors += local.other_errors;
    summary.degraded += local.degraded;
    summary.correctness_violations += local.correctness_violations;
    if (summary.first_violation.empty()) {
      summary.first_violation = local.first_violation;
    }
    summary.latency.Merge(local.latency);
    summary.ok_latency.Merge(local.ok_latency);
    summary.max_retry_after_ms =
        std::max(summary.max_retry_after_ms, local.max_retry_after_ms);
  };

  std::thread storm([&] {
    if (options_.storm.period_ms <= 0 || options_.storm.good.empty()) {
      return;
    }
    int64_t k = 0;
    while (!load_done.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.storm.period_ms));
      if (load_done.load(std::memory_order_relaxed)) break;
      LoadSummary tick;
      StormTick(k++, tick);
      std::lock_guard<std::mutex> lock(mu);
      summary.swap_attempts += tick.swap_attempts;
      summary.swap_ok += tick.swap_ok;
      summary.swap_rejected += tick.swap_rejected;
      summary.rollbacks += tick.rollbacks;
      summary.swap_pause_ms.Merge(tick.swap_pause_ms);
    }
  });

  std::vector<std::thread> pool;
  for (int64_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& t : pool) t.join();
  load_done.store(true, std::memory_order_relaxed);
  storm.join();

  summary.makespan_ms = WallMsSince(start);
  summary.Finalize();
  return summary;
}

}  // namespace privrec::loadgen
