#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/random.h"

namespace perfbench {

std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     int64_t duration_ns) {
  std::vector<int64_t> out;
  if (rate_per_s <= 0.0 || duration_ns <= 0) return out;
  out.reserve(static_cast<size_t>(rate_per_s * 1e-9 *
                                  static_cast<double>(duration_ns) * 1.1) +
              16);
  privrec::Rng rng(seed);
  const double lambda_per_ns = rate_per_s * 1e-9;
  double t = 0.0;
  for (;;) {
    t += rng.Exponential(lambda_per_ns);
    if (t >= static_cast<double>(duration_ns)) break;
    out.push_back(static_cast<int64_t>(t));
  }
  return out;
}

ZipfUsers::ZipfUsers(int64_t n, double s, uint64_t seed)
    : n_(n), s_(s), seed_(seed), permutation_(static_cast<size_t>(n)) {
  std::iota(permutation_.begin(), permutation_.end(), int64_t{0});
  privrec::Rng rng(privrec::SplitMix64(seed ^ 0x7065726dull));
  rng.Shuffle(permutation_);
}

int64_t ZipfUsers::User(int64_t i) const {
  privrec::Rng rng(
      privrec::SplitMix64(seed_ + 0x9e3779b97f4a7c15ull *
                                      static_cast<uint64_t>(i + 1)));
  const auto rank = rng.Zipf(static_cast<uint64_t>(n_), s_);
  return permutation_[static_cast<size_t>(rank)];
}

int64_t NearestRank(double q, int64_t n) {
  // q * n in binary floating point can land just above an integer
  // (0.999 * 10000 = 9990.000000000002); the slack keeps ceil exact.
  return static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
}

int64_t ExactQuantile(std::vector<int64_t>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<int64_t>(samples.size());
  auto rank = NearestRank(q, n);
  rank = std::clamp<int64_t>(rank, 1, n);
  return samples[static_cast<size_t>(rank - 1)];
}

double HighestResolvedPercentile(int64_t n, int64_t min_beyond) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly above the nearest-rank p-th percentile.
    const int64_t rank = NearestRank(p / 100.0, n);
    if (n - rank >= min_beyond) best = p;
  }
  return best;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

double NsToMs(int64_t ns) {
  return ns == kFailedLatencyNs ? std::numeric_limits<double>::infinity()
                                : static_cast<double>(ns) * 1e-6;
}

}  // namespace

LatencySummary Summarize(std::vector<int64_t> samples_ns) {
  LatencySummary s;
  s.samples = static_cast<int64_t>(samples_ns.size());
  if (samples_ns.empty()) return s;
  s.p50_ms = NsToMs(ExactQuantile(samples_ns, 0.50));
  s.p99_ms = NsToMs(ExactQuantile(samples_ns, 0.99));
  s.p999_ms = NsToMs(ExactQuantile(samples_ns, 0.999));
  s.resolved_percentile = HighestResolvedPercentile(s.samples);
  return s;
}

void PhaseCounts::Add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk: ++ok; break;
    case Outcome::kDegraded: ++degraded; break;
    case Outcome::kShed: ++shed; break;
    case Outcome::kExpired: ++expired; break;
    case Outcome::kError: ++error; break;
  }
}

std::string PhaseCounts::ToJson() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"attempted\": %lld, \"ok\": %lld, \"degraded\": %lld, "
                "\"shed\": %lld, \"expired\": %lld, \"error\": %lld}",
                static_cast<long long>(attempted),
                static_cast<long long>(ok),
                static_cast<long long>(degraded),
                static_cast<long long>(shed),
                static_cast<long long>(expired),
                static_cast<long long>(error));
  return buf;
}

double WindowedQuantileMs(const std::vector<int64_t>& latency_ns, double q,
                          int64_t chunk) {
  const auto n = static_cast<int64_t>(latency_ns.size());
  if (n == 0) return 0.0;
  const int64_t windows = std::max<int64_t>(1, n / std::max<int64_t>(chunk, 1));
  std::vector<double> per_window;
  for (int64_t w = 0; w < windows; ++w) {
    std::vector<int64_t> part(latency_ns.begin() + w * n / windows,
                              latency_ns.begin() + (w + 1) * n / windows);
    per_window.push_back(NsToMs(ExactQuantile(part, q)));
  }
  return Median(per_window);
}

ClosedLoopResult RunClosedLoop(int threads, int64_t duration_ns, int windows,
                               const std::function<Outcome(int64_t)>& serve) {
  const int64_t start = NowNs();
  const int64_t end = start + duration_ns;
  std::atomic<int64_t> next{0};
  std::mutex mu;
  std::vector<int64_t> per_window(static_cast<size_t>(windows), 0);
  std::vector<PhaseCounts> counts(static_cast<size_t>(threads));
  auto caller = [&](int t) {
    std::vector<int64_t> local(per_window.size(), 0);
    for (;;) {
      const int64_t now = NowNs();
      if (now >= end) break;
      Outcome outcome = Outcome::kError;
      try {
        outcome = serve(next.fetch_add(1));
      } catch (...) {
        outcome = Outcome::kError;
      }
      const int64_t done = NowNs();
      counts[static_cast<size_t>(t)].Add(outcome);
      if (done < end && (outcome == Outcome::kOk ||
                         outcome == Outcome::kDegraded)) {
        ++local[static_cast<size_t>((done - start) * windows / duration_ns)];
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    for (size_t w = 0; w < local.size(); ++w) per_window[w] += local[w];
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(caller, t);
  for (std::thread& t : pool) t.join();

  ClosedLoopResult r;
  for (const PhaseCounts& c : counts) {
    r.counts.attempted += c.attempted;
    r.counts.ok += c.ok;
    r.counts.degraded += c.degraded;
    r.counts.shed += c.shed;
    r.counts.expired += c.expired;
    r.counts.error += c.error;
  }
  const double window_s = static_cast<double>(duration_ns) * 1e-9 / windows;
  std::vector<double> rates;
  int64_t total = 0;
  for (int64_t c : per_window) {
    rates.push_back(static_cast<double>(c) / window_s);
    total += c;
  }
  r.rate_per_s = static_cast<double>(total) /
                 (static_cast<double>(duration_ns) * 1e-9);
  r.median_window_rate_per_s = Median(rates);
  return r;
}

bool BacklogGrowing(const std::vector<int64_t>& latency_ns) {
  const size_t n = latency_ns.size();
  if (n < 50) return false;
  std::vector<int64_t> head(latency_ns.begin(), latency_ns.begin() + n / 5);
  std::vector<int64_t> tail(latency_ns.end() - n / 5, latency_ns.end());
  const int64_t head_p50 = ExactQuantile(head, 0.5);
  const int64_t tail_p50 = ExactQuantile(tail, 0.5);
  if (tail_p50 == kFailedLatencyNs) return true;
  // Twice the opening median plus 1 ms: a queue that keeps growing
  // crosses this well before the phase ends, a steady one never does.
  return tail_p50 > 2 * head_p50 + 1'000'000;
}

OpenLoopResult RunOpenLoop(const std::vector<int64_t>& send_ns, int threads,
                           const std::function<Outcome(int64_t)>& serve) {
  OpenLoopResult result;
  const size_t n = send_ns.size();
  result.latency_ns.assign(n, 0);
  result.lateness_ns.assign(n, 0);
  result.service_ns.assign(n, 0);
  std::vector<Outcome> outcomes(n, Outcome::kOk);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int64_t> queue;
  bool closed = false;
  // Two ms of lead so the first due time is not already in the past.
  const int64_t start_ns = NowNs() + 2'000'000;

  auto worker = [&] {
    for (;;) {
      int64_t index = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        index = queue.front();
        queue.pop_front();
      }
      Outcome outcome = Outcome::kError;
      const int64_t begin = NowNs();
      try {
        outcome = serve(index);
      } catch (...) {
        outcome = Outcome::kError;
      }
      const int64_t done = NowNs();
      const auto i = static_cast<size_t>(index);
      outcomes[i] = outcome;
      result.service_ns[i] = done - begin;
      result.latency_ns[i] =
          outcome == Outcome::kOk || outcome == Outcome::kDegraded
              ? done - (start_ns + send_ns[i])
              : kFailedLatencyNs;
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);

  for (size_t i = 0; i < n; ++i) {
    const int64_t due = start_ns + send_ns[i];
    std::this_thread::sleep_until(SteadyClock::time_point(
        std::chrono::nanoseconds(due)));
    result.lateness_ns[i] = std::max<int64_t>(0, NowNs() - due);
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(static_cast<int64_t>(i));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : pool) t.join();

  for (Outcome o : outcomes) result.counts.Add(o);
  result.backlog_growing = BacklogGrowing(result.latency_ns);
  return result;
}

}  // namespace perfbench
