// Self-tests of the benchmark's own schedule and quantile code. run.py
// runs this binary before every measurement; a failure marks the run
// incorrect.

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void TestPoissonSchedule() {
  const int64_t second = 1'000'000'000;
  const auto a = perfbench::PoissonSchedule(7, 2000.0, 20 * second);
  const auto b = perfbench::PoissonSchedule(7, 2000.0, 20 * second);
  const auto c = perfbench::PoissonSchedule(8, 2000.0, 20 * second);
  Expect(a == b, "same seed gives the same schedule");
  Expect(a != c, "another seed gives another schedule");
  // 40,000 expected arrivals; 5 sigma is 1,000.
  Expect(std::abs(static_cast<double>(a.size()) - 40000.0) < 1000.0,
         "arrival count matches the rate");
  bool ascending = true;
  bool in_range = true;
  int64_t sub_ms = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i] < a[i - 1]) ascending = false;
    if (a[i] < 0 || a[i] >= 20 * second) in_range = false;
    if (a[i] % 1'000'000 != 0) ++sub_ms;
  }
  Expect(ascending, "send times ascend");
  Expect(in_range, "send times stay inside the phase");
  // Integer-ms schedules put every arrival on a tick; ns ones almost never.
  Expect(sub_ms > static_cast<int64_t>(a.size()) - 10,
         "send times are not rounded to ms ticks");
  // Exponential gaps: the coefficient of variation is 1.
  double mean = 0.0;
  double sq = 0.0;
  for (size_t i = 1; i < a.size(); ++i) {
    const double gap = static_cast<double>(a[i] - a[i - 1]);
    mean += gap;
    sq += gap * gap;
  }
  const double m = mean / static_cast<double>(a.size() - 1);
  const double var = sq / static_cast<double>(a.size() - 1) - m * m;
  Expect(std::abs(std::sqrt(var) / m - 1.0) < 0.05,
         "gaps are exponential (cv near 1)");
  Expect(perfbench::PoissonSchedule(1, 0.0, second).empty(),
         "rate 0 gives no arrivals");
}

void TestZipfUsers() {
  const perfbench::ZipfUsers users(1000, 0.8, 3);
  std::vector<int64_t> hits(1000, 0);
  for (int64_t i = 0; i < 20000; ++i) {
    const int64_t u = users.User(i);
    Expect(u >= 0 && u < 1000, "zipf user in range");
    if (u >= 0 && u < 1000) ++hits[static_cast<size_t>(u)];
  }
  Expect(users.User(5) == perfbench::ZipfUsers(1000, 0.8, 3).User(5),
         "zipf users are a pure function of seed and index");
  int64_t top = 0;
  for (int64_t h : hits) top = std::max(top, h);
  // Rank 1 of Zipf(0.8) over 1000 ranks draws 1 / H(1000, 0.8), about
  // 6.5% of requests.
  Expect(top > 1000 && top < 1600, "zipf head weight matches s = 0.8");
}

void TestQuantiles() {
  std::vector<int64_t> v;
  for (int64_t i = 100; i >= 1; --i) v.push_back(i);
  Expect(perfbench::ExactQuantile(v, 0.5) == 50, "p50 of 1..100 is 50");
  Expect(perfbench::ExactQuantile(v, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(perfbench::ExactQuantile(v, 1.0) == 100, "p100 is the max");
  Expect(perfbench::ExactQuantile(v, 0.0) == 1, "p0 is the min");
  std::vector<int64_t> one = {42};
  Expect(perfbench::ExactQuantile(one, 0.99) == 42, "single sample");
  std::vector<int64_t> none;
  Expect(perfbench::ExactQuantile(none, 0.5) == 0, "empty input");

  Expect(perfbench::HighestResolvedPercentile(1000) == 99.0,
         "1000 samples resolve p99 (10 beyond)");
  Expect(perfbench::HighestResolvedPercentile(999) == 90.0,
         "999 samples do not resolve p99");
  Expect(perfbench::HighestResolvedPercentile(10000) == 99.9,
         "10000 samples resolve p99.9");
  Expect(perfbench::HighestResolvedPercentile(15) == 0.0,
         "15 samples resolve nothing");

  // A failed request sorts last and reads as +inf.
  std::vector<int64_t> with_failure(99, 1'000'000);
  with_failure.push_back(perfbench::kFailedLatencyNs);
  const perfbench::LatencySummary s = perfbench::Summarize(with_failure);
  Expect(s.p50_ms == 1.0, "p50 ignores one failure in 100");
  Expect(std::isinf(s.p999_ms), "a failure reaches the top quantile");

  Expect(perfbench::Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Expect(perfbench::Median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

void TestBacklog() {
  std::vector<int64_t> steady(1000, 2'000'000);
  Expect(!perfbench::BacklogGrowing(steady), "steady latency");
  std::vector<int64_t> growing;
  for (int64_t i = 0; i < 1000; ++i) growing.push_back(1'000'000 + i * 50'000);
  Expect(perfbench::BacklogGrowing(growing), "growing latency");
}

void TestOpenLoop() {
  const auto schedule =
      perfbench::PoissonSchedule(11, 2000.0, 200'000'000);
  const perfbench::OpenLoopResult r = perfbench::RunOpenLoop(
      schedule, 2, [](int64_t index) {
        return index % 10 == 0 ? perfbench::Outcome::kShed
                               : perfbench::Outcome::kOk;
      });
  Expect(r.counts.attempted == static_cast<int64_t>(schedule.size()),
         "every scheduled request is attempted");
  Expect(r.counts.shed == (r.counts.attempted + 9) / 10,
         "outcomes are counted per request");
  Expect(r.latency_ns[0] == perfbench::kFailedLatencyNs,
         "failed requests miss every limit");
  bool finite = true;
  for (size_t i = 1; i < r.latency_ns.size(); ++i) {
    if (i % 10 != 0 && (r.latency_ns[i] < 0 ||
                        r.latency_ns[i] == perfbench::kFailedLatencyNs)) {
      finite = false;
    }
  }
  Expect(finite, "served requests get a latency from their due time");
}

}  // namespace

int main() {
  TestPoissonSchedule();
  TestZipfUsers();
  TestQuantiles();
  TestBacklog();
  TestOpenLoop();
  if (failures == 0) std::printf("selftest ok\n");
  return failures == 0 ? 0 : 1;
}
