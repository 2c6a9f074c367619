// Tests for the open-loop load harness (src/loadgen): schedule
// determinism and coordinated-omission safety, the latency recorder over
// the shared log-bucket grid, the SLO evaluator, the correctness oracle,
// and end-to-end RunVirtual determinism — same seed, bit-identical
// shed/expired/degraded counts across fresh runtime instances, with and
// without a swap storm.

#include "loadgen/harness.h"
#include "loadgen/oracle.h"
#include "loadgen/report.h"
#include "loadgen/schedule.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "artifact_files.h"
#include "artifact/builder.h"
#include "artifact/shard_layout.h"
#include "common/parallel.h"
#include "community/louvain.h"
#include "data/synthetic.h"
#include "obs/rolling_window.h"
#include "serve/clock.h"
#include "serve/runtime.h"
#include "serve/telemetry.h"
#include "similarity/common_neighbors.h"

namespace privrec {
namespace {

namespace fs = std::filesystem;

using loadgen::BuildSchedule;
using loadgen::EvaluateSlo;
using loadgen::LoadHarness;
using loadgen::LoadOracle;
using loadgen::LoadRunOptions;
using loadgen::LoadSpec;
using loadgen::LoadSummary;
using loadgen::ScheduledRequest;
using loadgen::SloBudget;
using loadgen::SloVerdict;
using loadgen::SwapStormSpec;

// ------------------------------------------------------------ schedule

LoadSpec SmallSpec() {
  LoadSpec spec;
  spec.rps = 800;
  spec.duration_ms = 500;
  spec.seed = 42;
  spec.num_users = 60;
  spec.users_per_request = 4;
  spec.top_n = 5;
  return spec;
}

TEST(LoadScheduleTest, SameSpecSameScheduleBitForBit) {
  const std::vector<ScheduledRequest> a = BuildSchedule(SmallSpec());
  const std::vector<ScheduledRequest> b = BuildSchedule(SmallSpec());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 100u);  // ~800 rps x 0.5 s, burst-inflated
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].send_ms, b[i].send_ms);
    EXPECT_EQ(a[i].request.users, b[i].request.users);
    EXPECT_EQ(a[i].request.top_n, b[i].request.top_n);
    EXPECT_EQ(a[i].request.deadline_ms, b[i].request.deadline_ms);
  }
}

TEST(LoadScheduleTest, DifferentSeedsDifferentSchedules) {
  LoadSpec other = SmallSpec();
  other.seed = 43;
  const std::vector<ScheduledRequest> a = BuildSchedule(SmallSpec());
  const std::vector<ScheduledRequest> b = BuildSchedule(other);
  bool differs = a.size() != b.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].send_ms != b[i].send_ms ||
              a[i].request.users != b[i].request.users;
  }
  EXPECT_TRUE(differs);
}

TEST(LoadScheduleTest, SendTimesMonotoneAndShapesInRange) {
  const LoadSpec spec = SmallSpec();
  const std::vector<ScheduledRequest> schedule = BuildSchedule(spec);
  int64_t previous = 0;
  for (const ScheduledRequest& scheduled : schedule) {
    EXPECT_GE(scheduled.send_ms, previous);
    EXPECT_LT(scheduled.send_ms, spec.duration_ms);
    previous = scheduled.send_ms;
    EXPECT_EQ(static_cast<int64_t>(scheduled.request.users.size()),
              spec.users_per_request);
    for (graph::NodeId user : scheduled.request.users) {
      EXPECT_GE(user, 0);
      EXPECT_LT(user, spec.num_users);
    }
    EXPECT_GE(scheduled.request.top_n, 1);
    EXPECT_LE(scheduled.request.top_n, spec.top_n);
    EXPECT_TRUE(scheduled.request.deadline_ms == spec.deadline_short_ms ||
                scheduled.request.deadline_ms == loadgen::kDeadlineLongMs);
  }
}

TEST(LoadScheduleTest, BurstWindowsRunHotterThanSteadyState) {
  LoadSpec spec = SmallSpec();
  spec.rps = 1000;
  spec.duration_ms = 2000;
  spec.burst_factor = 8.0;
  spec.burst_period_ms = 500;
  spec.burst_duration_ms = 100;
  const std::vector<ScheduledRequest> schedule = BuildSchedule(spec);

  // Burst windows cover 1/5 of the timeline at 8x the base rate, so they
  // should hold well over their proportional share of arrivals.
  int64_t in_burst = 0;
  for (const ScheduledRequest& scheduled : schedule) {
    if (scheduled.send_ms % spec.burst_period_ms < spec.burst_duration_ms) {
      ++in_burst;
    }
  }
  EXPECT_GT(in_burst * 2, static_cast<int64_t>(schedule.size()));
}

TEST(LoadScheduleTest, DegenerateSpecsYieldEmptySchedules) {
  LoadSpec zero_rate = SmallSpec();
  zero_rate.rps = 0;
  EXPECT_TRUE(BuildSchedule(zero_rate).empty());
  LoadSpec zero_window = SmallSpec();
  zero_window.duration_ms = 0;
  EXPECT_TRUE(BuildSchedule(zero_window).empty());
}

// ------------------------------------------------------------ slo

LoadSummary PassingSummary() {
  LoadSummary summary;
  summary.scheduled = 100;
  summary.ok = 95;
  summary.shed = 5;
  for (int i = 0; i < 95; ++i) summary.latency.Observe(2.0);
  for (int i = 0; i < 5; ++i) summary.latency.Observe(40.0);
  summary.swap_attempts = 4;
  summary.swap_ok = 4;
  summary.makespan_ms = 1000.0;
  summary.Finalize();
  return summary;
}

TEST(SloTest, PassesWithinBudgets) {
  SloBudget budget;
  budget.p50_ms = 10.0;
  budget.p99_ms = 100.0;
  budget.max_shed_rate = 0.10;
  budget.max_rollback_rate = 0.0;
  SloVerdict verdict = EvaluateSlo(budget, PassingSummary());
  EXPECT_TRUE(verdict.pass) << (verdict.failures.empty()
                                    ? ""
                                    : verdict.failures.front());
  EXPECT_TRUE(verdict.failures.empty());
}

TEST(SloTest, EachBreachedBudgetProducesADiagnostic) {
  LoadSummary summary = PassingSummary();
  SloBudget budget;
  budget.p50_ms = 0.001;       // breached by the 2ms cluster
  budget.max_shed_rate = 0.01; // breached by shed_rate = 0.05
  SloVerdict verdict = EvaluateSlo(budget, summary);
  EXPECT_FALSE(verdict.pass);
  EXPECT_EQ(verdict.failures.size(), 2u);
}

TEST(SloTest, CorrectnessViolationsAreZeroTolerance) {
  LoadSummary summary = PassingSummary();
  summary.correctness_violations = 1;
  summary.first_violation = "user 3: ranking mismatch";
  SloVerdict verdict = EvaluateSlo(SloBudget{}, summary);
  EXPECT_FALSE(verdict.pass);
  ASSERT_EQ(verdict.failures.size(), 1u);
  EXPECT_NE(verdict.failures[0].find("ranking mismatch"),
            std::string::npos);

  // ...unless the zero-tolerance line is explicitly relaxed.
  SloBudget relaxed;
  relaxed.require_no_violations = false;
  EXPECT_TRUE(EvaluateSlo(relaxed, summary).pass);
}

TEST(SloTest, RunWithNoSuccessfulRequestsFails) {
  LoadSummary empty;
  empty.scheduled = 10;
  empty.shed = 10;
  empty.Finalize();
  SloVerdict verdict = EvaluateSlo(SloBudget{}, empty);
  EXPECT_FALSE(verdict.pass);
}

// ------------------------------------------------------------ harness

class LoadHarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("privrec_loadgen_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    dataset_ = data::MakeTinyDataset(/*num_users=*/60, /*num_items=*/40,
                                     /*seed=*/7);
    workload_ = similarity::SimilarityWorkload::Compute(
        dataset_.social, similarity::CommonNeighbors());
    louvain_ = community::RunLouvain(dataset_.social,
                                     {.restarts = 2, .seed = 3});
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string BuildArtifact(const std::string& name, uint64_t seed) {
    artifact::ModelArtifactBuilder builder(&dataset_.social,
                                           &dataset_.preferences);
    builder.SetPartition(&louvain_.partition);
    builder.SetWorkload(&workload_);
    artifact::BuildOptions build_options;
    build_options.epsilon = kEps;
    build_options.seed = seed;
    auto model = builder.Build(build_options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    const std::string path = (dir_ / name).string();
    Status saved = serving::SaveShardedArtifact(*model, path);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    return path;
  }

  std::string CorruptCopy(const std::string& source,
                          const std::string& name) {
    const std::string path = (dir_ / name).string();
    test_artifacts::CorruptManifestCopy(source, path);
    return path;
  }

  serve::ServeRuntimeOptions RuntimeOptions(serve::Clock* clock) const {
    serve::ServeRuntimeOptions options;
    options.swap.spec.mechanism = "Cluster";
    options.swap.spec.epsilon = kEps;
    options.clock = clock;
    options.admission.max_concurrency = 2;
    options.admission.queue_depth = 4;
    return options;
  }

  LoadRunOptions RunOptions() const {
    LoadRunOptions run;
    run.load.rps = 600;
    run.load.duration_ms = 600;
    run.load.seed = 5;
    run.load.num_users = 60;
    run.load.deadline_short_ms = 10;
    return run;
  }

  static constexpr double kEps = 0.7;

  fs::path dir_;
  data::Dataset dataset_;
  similarity::SimilarityWorkload workload_;
  community::LouvainResult louvain_;
};

TEST_F(LoadHarnessTest, RunVirtualIsDeterministicAcrossFreshRuntimes) {
  const std::string path = BuildArtifact("a.pvram", 101);

  auto run_once = [&]() -> LoadSummary {
    serve::ManualClock clock;
    serve::ServeRuntime runtime(RuntimeOptions(&clock));
    EXPECT_TRUE(runtime.Activate(path).ok());
    LoadHarness harness(&runtime, /*oracle=*/nullptr, RunOptions());
    return harness.RunVirtual(&clock);
  };

  const LoadSummary first = run_once();
  const LoadSummary second = run_once();

  EXPECT_GT(first.scheduled, 0);
  EXPECT_GT(first.ok, 0);
  EXPECT_EQ(first.scheduled,
            first.ok + first.shed + first.expired + first.other_errors);
  EXPECT_EQ(first.scheduled, second.scheduled);
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.shed, second.shed);
  EXPECT_EQ(first.expired, second.expired);
  EXPECT_EQ(first.degraded, second.degraded);
  EXPECT_EQ(first.max_retry_after_ms, second.max_retry_after_ms);
  EXPECT_DOUBLE_EQ(first.makespan_ms, second.makespan_ms);
  EXPECT_DOUBLE_EQ(first.latency.sum(), second.latency.sum());
  EXPECT_EQ(first.latency.count(), second.latency.count());
  EXPECT_DOUBLE_EQ(first.latency.Quantile(0.99),
                   second.latency.Quantile(0.99));
}

// The tentpole determinism gate in miniature: a virtual-time run with a
// telemetry sink attached reproduces the JSONL wide-event stream and the
// rolling-window series byte for byte — across fresh runtimes AND across
// worker thread counts (the sink never reads a clock or RNG; time enters
// only through the events).
TEST_F(LoadHarnessTest, TelemetryStreamIsByteIdenticalAcrossRunsAndThreads) {
  const std::string path = BuildArtifact("a.pvram", 101);

  struct Capture {
    std::string jsonl;
    std::string series;
    int64_t recorded = 0;
    int64_t sampled = 0;
  };
  auto run_once = [&](int64_t threads) -> Capture {
    ScopedThreadCount scoped(threads);
    serve::ManualClock clock;
    serve::ServeTelemetryOptions tel_options;
    tel_options.sample_every = 16;
    tel_options.slow_ms = 50.0;
    tel_options.window_ms = 100;
    tel_options.budget.p99_ms = 20.0;
    tel_options.budget.lookback = 4;
    tel_options.budget.burn_threshold = 0.25;
    serve::ServeTelemetry telemetry(tel_options);
    serve::ServeRuntimeOptions options = RuntimeOptions(&clock);
    options.telemetry = &telemetry;
    serve::ServeRuntime runtime(options);
    EXPECT_TRUE(runtime.Activate(path).ok());
    LoadHarness harness(&runtime, /*oracle=*/nullptr, RunOptions());
    (void)harness.RunVirtual(&clock);
    telemetry.Flush(clock.NowMs());
    return {telemetry.EventsJsonl(),
            obs::WindowSeriesToJson(telemetry.series()),
            telemetry.recorded(), telemetry.sampled()};
  };

  const Capture first = run_once(1);
  const Capture second = run_once(1);
  const Capture threaded = run_once(2);

  EXPECT_GT(first.recorded, 0);
  EXPECT_GT(first.sampled, 0);
  EXPECT_LT(first.sampled, first.recorded);  // sampling actually thins
  EXPECT_FALSE(first.jsonl.empty());
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.series, second.series);
  EXPECT_EQ(first.jsonl, threaded.jsonl);
  EXPECT_EQ(first.series, threaded.series);
  EXPECT_EQ(first.recorded, threaded.recorded);
  EXPECT_EQ(first.sampled, threaded.sampled);
}

TEST_F(LoadHarnessTest, OverloadedRunShedsWithLoadAwareHints) {
  const std::string path = BuildArtifact("a.pvram", 101);
  serve::ManualClock clock;
  serve::ServeRuntimeOptions options = RuntimeOptions(&clock);
  options.admission.max_concurrency = 1;  // choke point
  options.admission.queue_depth = 2;
  options.admission.retry_after_ms = 5;
  serve::ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(path).ok());

  LoadRunOptions run = RunOptions();
  run.load.rps = 2000;  // far past one slot's capacity
  run.service_base_ms = 4.0;
  LoadHarness harness(&runtime, /*oracle=*/nullptr, run);
  LoadSummary summary = harness.RunVirtual(&clock);

  EXPECT_GT(summary.shed, 0);
  EXPECT_GT(summary.expired, 0);
  EXPECT_GT(summary.shed_rate, 0.0);
  // The shed hints reflect measured holds x occupancy, not the 5ms floor.
  EXPECT_GT(summary.max_retry_after_ms, 5);
}

TEST_F(LoadHarnessTest, SwapStormRunStaysCorrectAndRollsBack) {
  const std::string good_a = BuildArtifact("good_a.pvram", 101);
  const std::string good_b = BuildArtifact("good_b.pvram", 202);
  const std::string corrupt = CorruptCopy(good_a, "bitflip.pvram");

  serve::ManualClock clock;
  serve::ServeRuntime runtime(RuntimeOptions(&clock));
  ASSERT_TRUE(runtime.Activate(good_a).ok());

  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = kEps;
  auto oracle = LoadOracle::Build({good_a, good_b}, spec);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ((*oracle)->generations(), 2);

  LoadRunOptions run = RunOptions();
  run.load.duration_ms = 800;
  run.storm.period_ms = 100;
  run.storm.good = {good_a, good_b};
  run.storm.corrupt = {corrupt};
  LoadHarness harness(&runtime, oracle->get(), run);
  LoadSummary summary = harness.RunVirtual(&clock);

  // Every response that completed was checked against the offline answer
  // of the generation that served it — across multiple live generations.
  EXPECT_GT(summary.ok, 0);
  EXPECT_EQ(summary.correctness_violations, 0) << summary.first_violation;
  EXPECT_GT(summary.swap_attempts, 2);
  EXPECT_GT(summary.swap_ok, 0);
  // Corrupt phases were rejected and rolled back, never served.
  EXPECT_GT(summary.swap_rejected, 0);
  EXPECT_EQ(summary.rollbacks, summary.swap_rejected);
  EXPECT_EQ(summary.swap_attempts, summary.swap_ok + summary.swap_rejected);
}

// ------------------------------------------------------------ oracle

TEST_F(LoadHarnessTest, OracleFlagsTamperedAndForeignResponses) {
  const std::string path = BuildArtifact("a.pvram", 101);
  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = kEps;
  auto oracle = LoadOracle::Build({path}, spec);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  serve::ServeRuntimeOptions options;
  options.swap.spec = spec;
  serve::ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(path).ok());
  serve::ServeRequest request{{0, 3, 6}, 5, 1000};
  serve::ServeResponse response = runtime.Handle(request);
  ASSERT_TRUE(response.status.ok());

  // The genuine response passes.
  EXPECT_EQ((*oracle)->Check(request, response), "");

  // A tampered ranking is caught.
  serve::ServeResponse tampered = response;
  ASSERT_FALSE(tampered.batch.lists.empty());
  ASSERT_GE(tampered.batch.lists[0].size(), 2u);
  std::swap(tampered.batch.lists[0][0], tampered.batch.lists[0][1]);
  EXPECT_NE((*oracle)->Check(request, tampered), "");

  // A response claiming an unknown generation is caught.
  serve::ServeResponse foreign = response;
  foreign.artifact_seed = 999;
  EXPECT_NE((*oracle)->Check(request, foreign), "");
}

TEST_F(LoadHarnessTest, OracleRejectsStatefulMechanisms) {
  const std::string path = BuildArtifact("a.pvram", 101);
  serving::ServeSpec fresh;
  fresh.mechanism = "ClusterFresh";
  fresh.epsilon = kEps;
  auto oracle = LoadOracle::Build({path}, fresh);
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ report

TEST_F(LoadHarnessTest, ReportJsonCarriesContextResultsAndVerdict) {
  LoadSummary summary = PassingSummary();
  SloBudget budget;
  budget.p99_ms = 100.0;
  SloVerdict verdict = EvaluateSlo(budget, summary);
  const std::string json = loadgen::LoadReportJson(
      SmallSpec(), /*swap_period_ms=*/250, summary, budget, verdict,
      "virtual", /*threads=*/1);
  for (const char* needle :
       {"\"git_revision\"", "\"privrec_version\"", "\"mode\": \"virtual\"",
        "\"rps\"", "\"seed\"", "\"p99_ms\"", "\"shed_rate\"",
        "\"rollbacks\"", "\"swap\"", "\"slo\"", "\"pass\": true"}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << "missing " << needle;
  }
}

}  // namespace
}  // namespace privrec
