// Tests for the resilient serving runtime (src/serve): the circuit
// breaker state machine on an injected clock, admission control
// (shedding, deadlines, slot recycling), the epoch-based hot artifact
// swap with rollback, and the ServeRuntime composition — including the
// degradation-tier interplay (shed requests answered from the
// global-average fallback, isolated users stable across swaps).

#include "serve/admission.h"
#include "serve/circuit_breaker.h"
#include "serve/clock.h"
#include "serve/runtime.h"
#include "serve/statusz.h"
#include "serve/swapper.h"
#include "serve/telemetry.h"

// The serving runtime inherits the include-level privacy isolation of the
// serving layer: none of the headers above may pull in the private graph
// containers.
#if defined(PRIVREC_GRAPH_PREFERENCE_GRAPH_H_) || \
    defined(PRIVREC_GRAPH_SOCIAL_GRAPH_H_)
#error "serve headers must not include the private graph containers"
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "artifact/builder.h"
#include "artifact/shard_layout.h"
#include "common/driver_flags.h"
#include "common/flags.h"
#include "community/louvain.h"
#include "data/synthetic.h"
#include "graph/preference_graph.h"
#include "graph/social_graph.h"
#include "loadgen/harness.h"
#include "loadgen/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wide_event.h"
#include "similarity/common_neighbors.h"
#include "stream/pipeline.h"

namespace privrec {
namespace {

namespace fs = std::filesystem;

using core::DegradationReason;
using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::AdmissionTicket;
using serve::ArtifactSwapper;
using serve::AsyncServe;
using serve::BreakerState;
using serve::CircuitBreaker;
using serve::CircuitBreakerOptions;
using serve::ManualClock;
using serve::ServeRequest;
using serve::ServeResponse;
using serve::ServeRuntime;
using serve::ServeRuntimeOptions;
using serve::SwapPolicy;

// ------------------------------------------------------------ breaker

TEST(CircuitBreakerTest, OpensAfterThresholdRejectsThenRecovers) {
  ManualClock clock;
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.cooldown_ms = 100;
  CircuitBreaker breaker("test", options, &clock);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  int calls = 0;
  auto fail = [&] {
    ++calls;
    return Status::IoError("backing store down");
  };
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(breaker.Run(fail).code(), StatusCode::kIoError);
  }
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_GT(breaker.retry_after_ms(), 0);

  // Open: fail fast with a typed rejection, the operation never runs.
  Status rejected = breaker.Run(fail);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.ToString().find("retry in"), std::string::npos);
  EXPECT_EQ(calls, 3);

  // Cooldown elapses -> half-open; a successful probe closes it.
  clock.Advance(100);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.Run([&] { return Status::Ok(); }).ok());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST(CircuitBreakerTest, HalfOpenProbeGetsBoundedRetries) {
  ManualClock clock;
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_ms = 50;
  CircuitBreaker breaker("probe", options, &clock);

  ASSERT_EQ(breaker.Run([] { return Status::IoError("x"); }).code(),
            StatusCode::kIoError);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  clock.Advance(50);

  // The half-open probe reruns the op while it fails with kIoError: two
  // transient failures then success all inside ONE probe, and the breaker
  // closes.
  int calls = 0;
  Status probed = breaker.Run([&] {
    return ++calls < 3 ? Status::IoError("flaky") : Status::Ok();
  });
  EXPECT_TRUE(probed.ok()) << probed.ToString();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, FailedProbeRestartsCooldown) {
  ManualClock clock;
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown_ms = 100;
  CircuitBreaker breaker("restart", options, &clock);

  ASSERT_EQ(breaker.Run([] { return Status::IoError("x"); }).code(),
            StatusCode::kIoError);
  clock.Advance(100);
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // The probe itself fails: back to open for a FULL new cooldown.
  EXPECT_EQ(breaker.Run([] { return Status::IoError("still down"); }).code(),
            StatusCode::kIoError);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  clock.Advance(99);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  clock.Advance(1);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreakerTest, NonFailureCodesDoNotAccumulateAcrossSuccess) {
  ManualClock clock;
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  CircuitBreaker breaker("reset", options, &clock);
  EXPECT_EQ(breaker.Run([] { return Status::IoError("x"); }).code(),
            StatusCode::kIoError);
  EXPECT_TRUE(breaker.Run([] { return Status::Ok(); }).ok());
  // The success reset the streak; one more failure must not trip it.
  EXPECT_EQ(breaker.Run([] { return Status::IoError("x"); }).code(),
            StatusCode::kIoError);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

// ------------------------------------------------------------ admission

TEST(AdmissionTest, ShedsImmediatelyWhenQueueFull) {
  ManualClock clock;
  AdmissionOptions options;
  options.max_concurrency = 1;
  options.queue_depth = 0;
  options.retry_after_ms = 25;
  AdmissionController admission(options, &clock);

  serve::PendingAdmit first = admission.AdmitAsync(1000);
  first.Wait();
  ASSERT_EQ(first.state(), serve::PendingAdmit::State::kAdmitted);
  AdmissionTicket ticket = first.TakeTicket();
  EXPECT_EQ(admission.in_flight(), 1);

  serve::PendingAdmit second = admission.AdmitAsync(1000);
  second.Wait();
  ASSERT_NE(second.state(), serve::PendingAdmit::State::kAdmitted);
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().ToString().find("retry in 25ms"),
            std::string::npos);

  // Releasing the slot makes the next admit succeed.
  ticket.Release();
  EXPECT_EQ(admission.in_flight(), 0);
  serve::PendingAdmit third = admission.AdmitAsync(1000);
  third.Wait();
  EXPECT_EQ(third.state(), serve::PendingAdmit::State::kAdmitted);
  third.TakeTicket().Release();
}

TEST(AdmissionTest, ExpiredDeadlineIsTyped) {
  ManualClock clock;
  clock.Set(500);
  AdmissionController admission({}, &clock);
  serve::PendingAdmit late = admission.AdmitAsync(500);
  late.Wait();
  ASSERT_NE(late.state(), serve::PendingAdmit::State::kAdmitted);
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(AdmissionTest, QueuedRequestTimesOutOnInjectedClock) {
  ManualClock clock;
  AdmissionOptions options;
  options.max_concurrency = 1;
  options.queue_depth = 4;
  AdmissionController admission(options, &clock);
  serve::PendingAdmit holder = admission.AdmitAsync(10'000);
  ASSERT_EQ(holder.state(), serve::PendingAdmit::State::kAdmitted);
  AdmissionTicket ticket = holder.TakeTicket();

  std::atomic<int> code{-1};
  std::thread waiter([&] {
    serve::PendingAdmit queued = admission.AdmitAsync(100);
    queued.Wait();
    code.store(static_cast<int>(queued.status().code()));
  });
  // Let the waiter queue up, then advance the injected clock past its
  // deadline; the timed cv slices re-check the clock and give up.
  while (admission.waiting() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  clock.Advance(200);
  waiter.join();
  EXPECT_EQ(code.load(), static_cast<int>(StatusCode::kDeadlineExceeded));
  EXPECT_EQ(admission.waiting(), 0);
}

TEST(AdmissionTest, QueuedRequestGetsSlotWhenReleased) {
  ManualClock clock;
  AdmissionOptions options;
  options.max_concurrency = 1;
  options.queue_depth = 4;
  AdmissionController admission(options, &clock);
  serve::PendingAdmit holder = admission.AdmitAsync(10'000);
  ASSERT_EQ(holder.state(), serve::PendingAdmit::State::kAdmitted);
  AdmissionTicket ticket = holder.TakeTicket();

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    serve::PendingAdmit queued = admission.AdmitAsync(10'000);
    queued.Wait();
    const bool granted =
        queued.state() == serve::PendingAdmit::State::kAdmitted;
    if (granted) queued.TakeTicket().Release();
    admitted.store(granted);
  });
  while (admission.waiting() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ticket.Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(admission.in_flight(), 0);  // waiter's ticket already destroyed
}

TEST(AdmissionTest, TicketIsMoveOnlyRaii) {
  ManualClock clock;
  AdmissionOptions options;
  options.max_concurrency = 1;
  AdmissionController admission(options, &clock);
  {
    serve::PendingAdmit pending = admission.AdmitAsync(1000);
    pending.Wait();
    ASSERT_EQ(pending.state(), serve::PendingAdmit::State::kAdmitted);
    AdmissionTicket ticket = pending.TakeTicket();
    AdmissionTicket moved = std::move(ticket);
    EXPECT_TRUE(moved.holds_slot());
    EXPECT_FALSE(ticket.holds_slot());
    EXPECT_EQ(admission.in_flight(), 1);
  }
  // Scope exit released exactly once despite the move.
  EXPECT_EQ(admission.in_flight(), 0);
}

// Satellite: the retry-after hint is load-aware — an EWMA of observed
// slot-hold times scaled by queue occupancy, floored at the configured
// constant.
TEST(AdmissionTest, RetryAfterHintScalesWithQueueOccupancy) {
  ManualClock clock;
  AdmissionOptions options;
  options.max_concurrency = 2;
  options.queue_depth = 3;
  options.retry_after_ms = 5;     // the floor
  options.hold_ewma_alpha = 1.0;  // track the latest hold exactly
  AdmissionController admission(options, &clock);

  // Before any hold has been observed the hint is the bare floor.
  EXPECT_EQ(admission.RetryAfterHintMs(), 5);

  serve::PendingAdmit first = admission.AdmitAsync(10'000);
  ASSERT_EQ(first.state(), serve::PendingAdmit::State::kAdmitted);
  AdmissionTicket ticket = first.TakeTicket();
  clock.Advance(100);
  ticket.Release();
  EXPECT_DOUBLE_EQ(admission.EstimatedHoldMs(), 100.0);

  // Idle system: ceil(100 * (0 + 1) / 2 slots) = 50.
  EXPECT_EQ(admission.RetryAfterHintMs(), 50);

  // Two slots held, three waiters queued: ceil(100 * 4 / 2) = 200.
  serve::PendingAdmit s1 = admission.AdmitAsync(10'000);
  serve::PendingAdmit s2 = admission.AdmitAsync(10'000);
  serve::PendingAdmit w1 = admission.AdmitAsync(10'000);
  serve::PendingAdmit w2 = admission.AdmitAsync(10'000);
  serve::PendingAdmit w3 = admission.AdmitAsync(10'000);
  ASSERT_EQ(admission.waiting(), 3);
  EXPECT_EQ(admission.RetryAfterHintMs(), 200);

  // A request shed off the full queue carries the scaled hint, not the
  // floor.
  serve::PendingAdmit shed = admission.AdmitAsync(10'000);
  ASSERT_EQ(shed.state(), serve::PendingAdmit::State::kShed);
  EXPECT_EQ(shed.retry_after_ms(), 200);
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().ToString().find("retry in 200ms"),
            std::string::npos);
}

// Satellite regression: a queued request whose deadline has passed is
// purged when the next slot frees — the slot goes to the first LIVE
// waiter instead of waking a dead request just to fail it.
TEST(AdmissionTest, ExpiredWaiterIsPurgedWhenSlotFrees) {
  ManualClock clock;
  AdmissionOptions options;
  options.max_concurrency = 1;
  options.queue_depth = 4;
  AdmissionController admission(options, &clock);

  serve::PendingAdmit holder = admission.AdmitAsync(10'000);
  ASSERT_EQ(holder.state(), serve::PendingAdmit::State::kAdmitted);
  AdmissionTicket ticket = holder.TakeTicket();

  serve::PendingAdmit dead = admission.AdmitAsync(50);
  serve::PendingAdmit live = admission.AdmitAsync(10'000);
  ASSERT_EQ(dead.state(), serve::PendingAdmit::State::kQueued);
  ASSERT_EQ(admission.waiting(), 2);

  clock.Advance(100);  // dead's deadline passes while it waits
  ticket.Release();

  EXPECT_EQ(dead.state(), serve::PendingAdmit::State::kExpired);
  EXPECT_EQ(dead.status().code(), StatusCode::kDeadlineExceeded);
  // The freed slot was handed past the corpse to the live waiter —
  // in_flight never dipped (slot transfer, not release + re-admit).
  EXPECT_EQ(live.state(), serve::PendingAdmit::State::kAdmitted);
  EXPECT_EQ(admission.waiting(), 0);
  EXPECT_EQ(admission.in_flight(), 1);
  live.TakeTicket().Release();
  EXPECT_EQ(admission.in_flight(), 0);
}

TEST(AdmissionTest, PurgeExpiredResolvesWaitersWithoutTraffic) {
  ManualClock clock;
  AdmissionOptions options;
  options.max_concurrency = 1;
  options.queue_depth = 4;
  AdmissionController admission(options, &clock);

  serve::PendingAdmit holder = admission.AdmitAsync(10'000);
  AdmissionTicket ticket = holder.TakeTicket();
  serve::PendingAdmit w1 = admission.AdmitAsync(20);
  serve::PendingAdmit w2 = admission.AdmitAsync(40);
  ASSERT_EQ(admission.waiting(), 2);

  // A clock-advancing driver purges without any release happening.
  clock.Advance(30);
  EXPECT_EQ(admission.PurgeExpired(), 1);
  EXPECT_EQ(w1.state(), serve::PendingAdmit::State::kExpired);
  EXPECT_EQ(w2.state(), serve::PendingAdmit::State::kQueued);
  clock.Advance(20);
  EXPECT_EQ(admission.PurgeExpired(), 1);
  EXPECT_EQ(w2.state(), serve::PendingAdmit::State::kExpired);
  EXPECT_EQ(admission.waiting(), 0);
  EXPECT_EQ(admission.PurgeExpired(), 0);
}

// Async and blocking admissions share ONE FIFO queue: a release grants
// whichever waiter is in front, regardless of style.
TEST(AdmissionTest, AsyncAndBlockingShareOneFifoQueue) {
  ManualClock clock;
  AdmissionOptions options;
  options.max_concurrency = 1;
  options.queue_depth = 4;
  AdmissionController admission(options, &clock);

  serve::PendingAdmit holder = admission.AdmitAsync(10'000);
  AdmissionTicket ticket = holder.TakeTicket();

  serve::PendingAdmit front = admission.AdmitAsync(10'000);
  ASSERT_EQ(front.state(), serve::PendingAdmit::State::kQueued);

  std::atomic<bool> blocking_admitted{false};
  std::thread blocking([&] {
    serve::PendingAdmit queued = admission.AdmitAsync(10'000);
    queued.Wait();
    const bool granted =
        queued.state() == serve::PendingAdmit::State::kAdmitted;
    if (granted) queued.TakeTicket().Release();
    blocking_admitted.store(granted);
  });
  while (admission.waiting() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ticket.Release();  // front of the queue is the async waiter
  EXPECT_EQ(front.state(), serve::PendingAdmit::State::kAdmitted);
  front.TakeTicket().Release();  // ...and the next grant is the blocker
  blocking.join();
  EXPECT_TRUE(blocking_admitted.load());
  EXPECT_EQ(admission.in_flight(), 0);
}

// ------------------------------------------------------------ swapper

class ServeSwapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Parameterized test names carry a "/<param>" suffix.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = fs::temp_directory_path() / ("privrec_serve_" + name);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    dataset_ = data::MakeTinyDataset(/*num_users=*/60, /*num_items=*/40,
                                     /*seed=*/7);
    workload_ = similarity::SimilarityWorkload::Compute(
        dataset_.social, similarity::CommonNeighbors());
    louvain_ = community::RunLouvain(dataset_.social,
                                     {.restarts = 2, .seed = 3});
    for (graph::NodeId u = 0; u < dataset_.social.num_nodes(); u += 3) {
      users_.push_back(u);
    }
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Builds a fresh artifact (fresh builder: invocation 0) at `path`.
  std::string BuildArtifact(const std::string& name, uint64_t seed,
                            double epsilon) {
    artifact::ModelArtifactBuilder builder(&dataset_.social,
                                           &dataset_.preferences);
    builder.SetPartition(&louvain_.partition);
    builder.SetWorkload(&workload_);
    artifact::BuildOptions build_options;
    build_options.epsilon = epsilon;
    build_options.seed = seed;
    auto model = builder.Build(build_options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    const std::string path = Path(name);
    Status saved = serving::SaveShardedArtifact(*model, path);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    return path;
  }

  SwapPolicy ClusterPolicy(double epsilon) const {
    SwapPolicy policy;
    policy.spec.mechanism = "Cluster";
    policy.spec.epsilon = epsilon;
    return policy;
  }

  static constexpr double kEps = 0.7;

  fs::path dir_;
  data::Dataset dataset_;
  similarity::SimilarityWorkload workload_;
  community::LouvainResult louvain_;
  std::vector<graph::NodeId> users_;
};

TEST_F(ServeSwapTest, ActivatePublishesEpochAndServes) {
  const std::string path = BuildArtifact("a.pvram", 11, kEps);
  ArtifactSwapper swapper(ClusterPolicy(kEps));
  EXPECT_EQ(swapper.Acquire(), nullptr);

  Status activated = swapper.Activate(path);
  ASSERT_TRUE(activated.ok()) << activated.ToString();
  EXPECT_EQ(swapper.current_epoch(), 1);
  EXPECT_EQ(swapper.swaps(), 1);
  EXPECT_EQ(swapper.rollbacks(), 0);

  auto epoch = swapper.AcquireMutable();
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->epoch, 1);
  core::RecommendedBatch batch = epoch->recommender->Recommend(users_, 10);
  ASSERT_EQ(batch.lists.size(), users_.size());

  // Same artifact served directly must be bit-identical.
  auto engine = serving::ServingEngine::Load(path);
  ASSERT_TRUE(engine.ok());
  auto server = serving::MakeServeRecommender(&*engine,
                                              ClusterPolicy(kEps).spec);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->Recommend(users_, 10).lists, batch.lists);
  EXPECT_EQ(epoch->artifact_seed, 11u);
}

TEST_F(ServeSwapTest, CorruptArtifactRollsBackAndKeepsServing) {
  const std::string good = BuildArtifact("good.pvram", 11, kEps);
  const std::string bad = BuildArtifact("bad.pvram", 12, kEps);
  {
    // Flip one payload bit: CRC must reject the section.
    std::fstream f(bad, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(200);
    char byte = 0;
    f.seekg(200);
    f.read(&byte, 1);
    byte ^= 0x10;
    f.seekp(200);
    f.write(&byte, 1);
  }

  obs::Tracer::Instance().SetEnabled(true);
  obs::Counter& rollback_metric =
      obs::GetCounter("privrec.serve.swap_rollback_total");
  const int64_t rollbacks_before = rollback_metric.value();

  ArtifactSwapper swapper(ClusterPolicy(kEps));
  ASSERT_TRUE(swapper.Activate(good).ok());
  auto before = swapper.Acquire();
  core::RecommendedBatch reference =
      swapper.AcquireMutable()->recommender->Recommend(users_, 10);

  Status swapped = swapper.Activate(bad);
  EXPECT_FALSE(swapped.ok());
  EXPECT_EQ(swapper.current_epoch(), 1);
  EXPECT_EQ(swapper.rollbacks(), 1);
  EXPECT_FALSE(swapper.last_error().empty());
  EXPECT_EQ(rollback_metric.value(), rollbacks_before + 1);

  // The published epoch is untouched and still serves identically.
  auto after = swapper.AcquireMutable();
  EXPECT_EQ(after->epoch, 1);
  EXPECT_EQ(after->recommender->Recommend(users_, 10).lists,
            reference.lists);
  EXPECT_EQ(before, swapper.Acquire());

  // Every attempt (success and rollback) traced a serve.swap span.
  std::vector<obs::SpanRecord> spans = obs::Tracer::Instance().Snapshot();
  obs::Tracer::Instance().SetEnabled(false);
  int64_t swap_spans = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "serve.swap") ++swap_spans;
  }
  EXPECT_GE(swap_spans, 2);
}

TEST_F(ServeSwapTest, ProvenanceGateRollsBack) {
  const std::string good = BuildArtifact("good.pvram", 11, kEps);
  const std::string other = BuildArtifact("other.pvram", 11, kEps / 2);
  ArtifactSwapper swapper(ClusterPolicy(kEps));
  ASSERT_TRUE(swapper.Activate(good).ok());
  Status swapped = swapper.Activate(other);
  EXPECT_EQ(swapped.code(), StatusCode::kProvenanceMismatch);
  EXPECT_EQ(swapper.current_epoch(), 1);
  EXPECT_EQ(swapper.rollbacks(), 1);
}

TEST_F(ServeSwapTest, PinnedGraphHashRejectsForeignDataset) {
  const std::string good = BuildArtifact("good.pvram", 11, kEps);

  // Same shape, different dataset: a different fingerprint.
  data::Dataset foreign = data::MakeTinyDataset(60, 40, /*seed=*/8);
  auto foreign_workload = similarity::SimilarityWorkload::Compute(
      foreign.social, similarity::CommonNeighbors());
  auto foreign_louvain =
      community::RunLouvain(foreign.social, {.restarts = 2, .seed = 3});
  artifact::ModelArtifactBuilder builder(&foreign.social,
                                         &foreign.preferences);
  builder.SetPartition(&foreign_louvain.partition);
  builder.SetWorkload(&foreign_workload);
  artifact::BuildOptions build_options;
  build_options.epsilon = kEps;
  build_options.seed = 11;
  auto model = builder.Build(build_options);
  ASSERT_TRUE(model.ok());
  const std::string foreign_path = Path("foreign.pvram");
  ASSERT_TRUE(serving::SaveShardedArtifact(*model, foreign_path).ok());

  ArtifactSwapper swapper(ClusterPolicy(kEps));
  ASSERT_TRUE(swapper.Activate(good).ok());
  EXPECT_EQ(swapper.Activate(foreign_path).code(),
            StatusCode::kGraphMismatch);
  EXPECT_EQ(swapper.current_epoch(), 1);
}

TEST_F(ServeSwapTest, InFlightEpochSurvivesSwap) {
  const std::string a = BuildArtifact("a.pvram", 11, kEps);
  const std::string b = BuildArtifact("b.pvram", 12, kEps);
  ArtifactSwapper swapper(ClusterPolicy(kEps));
  ASSERT_TRUE(swapper.Activate(a).ok());

  auto held = swapper.AcquireMutable();
  core::RecommendedBatch before = held->recommender->Recommend(users_, 10);

  ASSERT_TRUE(swapper.Activate(b).ok());
  EXPECT_EQ(swapper.current_epoch(), 2);

  // The held snapshot still serves epoch 1, bit-identically, even though
  // the swapper has moved on.
  EXPECT_EQ(held->epoch, 1);
  EXPECT_EQ(held->recommender->Recommend(users_, 10).lists, before.lists);
  EXPECT_EQ(swapper.Acquire()->epoch, 2);
}

// ------------------------------------------------------------ runtime

TEST_F(ServeSwapTest, RuntimeServesAndRecordsEpochIdentity) {
  const std::string path = BuildArtifact("a.pvram", 21, kEps);
  ManualClock clock;
  ServeRuntimeOptions options;
  options.swap = ClusterPolicy(kEps);
  options.clock = &clock;
  ServeRuntime runtime(options);

  // Before activation: typed precondition failure.
  ServeRequest request{users_, 10, 1000};
  EXPECT_EQ(runtime.Handle(request).status.code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(runtime.Activate(path).ok());
  ServeResponse first = runtime.Handle(request);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.epoch, 1);
  EXPECT_EQ(first.artifact_seed, 21u);
  EXPECT_FALSE(first.degraded_fallback);
  ASSERT_EQ(first.batch.lists.size(), users_.size());

  // Cluster serving is frozen-release post-processing: repeat requests
  // within one epoch are bit-identical.
  ServeResponse second = runtime.Handle(request);
  EXPECT_EQ(second.batch.lists, first.batch.lists);
}

TEST_F(ServeSwapTest, ShedRequestGetsGlobalFallbackTier) {
  const std::string path = BuildArtifact("a.pvram", 21, kEps);
  ManualClock clock;
  ServeRuntimeOptions options;
  options.swap = ClusterPolicy(kEps);
  options.clock = &clock;
  options.admission.max_concurrency = 0;  // no slots: everything sheds...
  options.admission.queue_depth = 0;      // ...immediately, never queued
  options.admission.retry_after_ms = 40;
  ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(path).ok());

  ServeRequest request{users_, 10, 1000};
  ServeResponse shed = runtime.Handle(request);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.retry_after_ms, 40);
  EXPECT_TRUE(shed.degraded_fallback);
  ASSERT_EQ(shed.batch.lists.size(), users_.size());
  ASSERT_EQ(shed.batch.degradation.size(), users_.size());
  for (const core::DegradationInfo& info : shed.batch.degradation) {
    EXPECT_EQ(info.reason, DegradationReason::kLoadShed);
  }

  // The fallback ranking is the epoch's global-average row.
  auto epoch = runtime.swapper().Acquire();
  core::RecommendationList expected =
      core::TopNFromDense(epoch->engine.global_average(), 10);
  for (const core::RecommendationList& list : shed.batch.lists) {
    EXPECT_EQ(list, expected);
  }
}

TEST_F(ServeSwapTest, ExpiredDeadlineFallsBackWithTypedStatus) {
  const std::string path = BuildArtifact("a.pvram", 21, kEps);
  ManualClock clock;
  clock.Set(100);
  ServeRuntimeOptions options;
  options.swap = ClusterPolicy(kEps);
  options.clock = &clock;
  ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(path).ok());

  ServeRequest request{users_, 10, /*deadline_ms=*/0};
  ServeResponse expired = runtime.Handle(request);
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.retry_after_ms, 0);
  EXPECT_TRUE(expired.degraded_fallback);

  // With the fallback tier disabled the rejection is bare.
  options.degraded_fallback = false;
  ServeRuntime bare(options);
  ASSERT_TRUE(bare.Activate(path).ok());
  ServeResponse rejected = bare.Handle(request);
  EXPECT_EQ(rejected.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(rejected.batch.lists.empty());
}

TEST_F(ServeSwapTest, ReloadBreakerOpensOnRepeatedBadArtifacts) {
  const std::string good = BuildArtifact("good.pvram", 21, kEps);
  ManualClock clock;
  ServeRuntimeOptions options;
  options.swap = ClusterPolicy(kEps);
  options.clock = &clock;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown_ms = 500;
  ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(good).ok());

  const std::string missing = Path("missing.pvram");
  EXPECT_EQ(runtime.Activate(missing).code(), StatusCode::kNotFound);
  EXPECT_EQ(runtime.Activate(missing).code(), StatusCode::kNotFound);
  EXPECT_EQ(runtime.reload_breaker().state(), BreakerState::kOpen);

  // Open breaker: the reload fails fast WITHOUT touching the swapper.
  const int64_t rollbacks = runtime.swapper().rollbacks();
  EXPECT_EQ(runtime.Activate(good).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(runtime.swapper().rollbacks(), rollbacks);

  // After cooldown the half-open probe lets the good artifact through.
  clock.Advance(500);
  EXPECT_TRUE(runtime.Activate(good).ok());
  EXPECT_EQ(runtime.reload_breaker().state(), BreakerState::kClosed);
  EXPECT_EQ(runtime.swapper().current_epoch(), 2);
}

// Satellite hardening: an empty user list is a valid no-op request — it
// succeeds with epoch identity attached and consumes no admission slot.
TEST_F(ServeSwapTest, EmptyUserListServedWithoutSlot) {
  const std::string path = BuildArtifact("a.pvram", 21, kEps);
  ManualClock clock;
  ServeRuntimeOptions options;
  options.swap = ClusterPolicy(kEps);
  options.clock = &clock;
  options.admission.max_concurrency = 0;  // any slot grab would shed
  options.admission.queue_depth = 0;
  ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(path).ok());

  ServeRequest request{{}, 10, 1000};
  ServeResponse response = runtime.Handle(request);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.epoch, 1);
  EXPECT_EQ(response.artifact_seed, 21u);
  EXPECT_FALSE(response.degraded_fallback);
  EXPECT_TRUE(response.batch.lists.empty());
}

// Satellite hardening: non-positive top_n is a caller bug, not a load
// condition — typed kInvalidArgument, no fallback tier.
TEST_F(ServeSwapTest, NonPositiveTopNIsInvalidArgument) {
  const std::string path = BuildArtifact("a.pvram", 21, kEps);
  ManualClock clock;
  ServeRuntimeOptions options;
  options.swap = ClusterPolicy(kEps);
  options.clock = &clock;
  ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(path).ok());

  for (int64_t top_n : {int64_t{0}, int64_t{-3}}) {
    ServeRequest request{users_, top_n, 1000};
    ServeResponse response = runtime.Handle(request);
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(response.degraded_fallback);
    EXPECT_TRUE(response.batch.lists.empty());
    // Epoch identity is still stamped so the rejection is attributable.
    EXPECT_EQ(response.epoch, 1);
  }
}

// Satellite hardening: a negative deadline is already expired on arrival
// and takes the same typed degrade path as deadline_ms=0.
TEST_F(ServeSwapTest, NegativeDeadlineExpiresWithTypedStatus) {
  const std::string path = BuildArtifact("a.pvram", 21, kEps);
  ManualClock clock;
  clock.Set(100);
  ServeRuntimeOptions options;
  options.swap = ClusterPolicy(kEps);
  options.clock = &clock;
  ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(path).ok());

  ServeRequest request{users_, 10, /*deadline_ms=*/-10};
  ServeResponse expired = runtime.Handle(request);
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(expired.degraded_fallback);
  ASSERT_EQ(expired.batch.lists.size(), users_.size());
}

// Satellite hardening: Activate racing an in-flight request. The async
// request pins its epoch at BeginAsync; a hot swap completing before
// FinishAsync must not change what it serves — including a request that
// was still QUEUED for admission when the swap landed.
TEST_F(ServeSwapTest, AsyncServeMatchesBlockingHandleAcrossSwap) {
  const std::string a = BuildArtifact("a.pvram", 21, kEps);
  const std::string b = BuildArtifact("b.pvram", 22, kEps);
  ManualClock clock;
  ServeRuntimeOptions options;
  options.swap = ClusterPolicy(kEps);
  options.clock = &clock;
  options.admission.max_concurrency = 1;
  options.admission.queue_depth = 2;
  ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(a).ok());

  ServeRequest request{users_, 10, 10'000};
  ServeResponse reference = runtime.Handle(request);
  ASSERT_TRUE(reference.status.ok());

  AsyncServe first = runtime.BeginAsync(request, clock.NowMs());
  ASSERT_TRUE(runtime.PollAsync(first));  // slot free: admitted at once
  AsyncServe queued = runtime.BeginAsync(request, clock.NowMs());
  EXPECT_FALSE(runtime.PollAsync(queued));  // one slot: waits behind first

  // Hot swap lands while both requests are in flight.
  ASSERT_TRUE(runtime.Activate(b).ok());

  ServeResponse first_response = runtime.FinishAsync(first);
  ASSERT_TRUE(first_response.status.ok());
  EXPECT_EQ(first_response.epoch, 1);
  EXPECT_EQ(first_response.artifact_seed, 21u);
  EXPECT_EQ(first_response.batch.lists, reference.batch.lists);

  // first's slot transferred to the queued waiter on FinishAsync.
  ASSERT_TRUE(runtime.PollAsync(queued));
  ServeResponse queued_response = runtime.FinishAsync(queued);
  ASSERT_TRUE(queued_response.status.ok());
  EXPECT_EQ(queued_response.epoch, 1);
  EXPECT_EQ(queued_response.artifact_seed, 21u);
  EXPECT_EQ(queued_response.batch.lists, reference.batch.lists);

  // Fresh traffic sees the new epoch.
  ServeResponse fresh = runtime.Handle(request);
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_EQ(fresh.epoch, 2);
  EXPECT_EQ(fresh.artifact_seed, 22u);
}

// Satellite: an isolated user served from the global fallback tier must
// get the SAME ranking before, during, and after a hot swap to an
// artifact with identical provenance (same inputs, seed, and ε).
TEST(ServeIsolatedUserTest, FallbackRankingStableAcrossHotSwap) {
  namespace fsn = std::filesystem;
  const fsn::path dir =
      fsn::temp_directory_path() / "privrec_serve_isolated";
  fsn::remove_all(dir);
  fsn::create_directories(dir);

  // Node 4 has no social edges: empty similarity row -> isolated user.
  graph::SocialGraph social =
      graph::SocialGraph::FromEdges(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  graph::PreferenceGraph prefs =
      graph::PreferenceGraph::FromEdges(5, 3, {{0, 0}, {1, 0}, {2, 1},
                                               {3, 2}});
  auto workload = similarity::SimilarityWorkload::Compute(
      social, similarity::CommonNeighbors());
  community::Partition partition({0, 0, 0, 1, 1});

  auto build = [&](const std::string& name) {
    artifact::ModelArtifactBuilder builder(&social, &prefs);
    builder.SetPartition(&partition);
    builder.SetWorkload(&workload);
    artifact::BuildOptions build_options;
    build_options.epsilon = 0.9;
    build_options.seed = 33;
    auto model = builder.Build(build_options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    const std::string path = (dir / name).string();
    EXPECT_TRUE(serving::SaveShardedArtifact(*model, path).ok());
    return path;
  };
  const std::string a = build("a.pvram");
  const std::string b = build("b.pvram");

  ServeRuntimeOptions options;
  options.swap.spec.mechanism = "Cluster";
  options.swap.spec.epsilon = 0.9;
  ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(a).ok());

  ServeRequest request{{4}, 3, 1000};
  ServeResponse before = runtime.Handle(request);
  ASSERT_TRUE(before.status.ok());
  ASSERT_EQ(before.batch.degradation.size(), 1u);
  EXPECT_EQ(before.batch.degradation[0].reason,
            DegradationReason::kIsolatedUser);

  // "During": a request that pinned epoch 1 and completes after the swap.
  auto held = runtime.swapper().AcquireMutable();
  ASSERT_TRUE(runtime.Activate(b).ok());
  core::RecommendedBatch during = held->recommender->Recommend({4}, 3);

  ServeResponse after = runtime.Handle(request);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.epoch, 2);

  EXPECT_EQ(during.lists, before.batch.lists);
  EXPECT_EQ(after.batch.lists, before.batch.lists);
  // Identical provenance: both epochs carry the same seed.
  EXPECT_EQ(before.artifact_seed, after.artifact_seed);

  fsn::remove_all(dir);
}

// The --serve-* flags land in ServeRuntimeOptions; absent flags keep the
// struct's own defaults, and the typo suggester knows the vocabulary.
TEST(ServeFlagsTest, ValuesParsedAndTyposSuggested) {
  const char* argv[] = {"driver",
                        "--serve-queue-depth=16",
                        "--serve-max-concurrency=2",
                        "--serve-breaker-failures=5",
                        "--serve-breaker-cooldown-ms=750"};
  FlagParser flags(5, const_cast<char**>(argv));
  serve::ServeRuntimeOptions options;
  ApplyServeFlags(flags, &options);
  EXPECT_TRUE(flags.Validate());
  EXPECT_EQ(options.admission.queue_depth, 16);
  EXPECT_EQ(options.admission.max_concurrency, 2);
  EXPECT_EQ(options.breaker.failure_threshold, 5);
  EXPECT_EQ(options.breaker.cooldown_ms, 750);

  const char* none_argv[] = {"driver"};
  FlagParser none(1, const_cast<char**>(none_argv));
  serve::ServeRuntimeOptions defaults;
  defaults.admission.queue_depth = 3;
  ApplyServeFlags(none, &defaults);
  EXPECT_EQ(defaults.admission.queue_depth, 3);
  EXPECT_EQ(defaults.admission.max_concurrency,
            AdmissionOptions{}.max_concurrency);
  EXPECT_EQ(defaults.breaker.cooldown_ms, CircuitBreakerOptions{}.cooldown_ms);

  const char* typo_argv[] = {"driver", "--serve-quue-depth=9"};
  FlagParser typo(2, const_cast<char**>(typo_argv));
  ApplyServeFlags(typo, &options);
  EXPECT_FALSE(typo.Validate());
  EXPECT_EQ(typo.SuggestionFor("serve-quue-depth"), "serve-queue-depth");
  EXPECT_EQ(typo.SuggestionFor("serve-max-concurency"),
            "serve-max-concurrency");
  EXPECT_EQ(typo.SuggestionFor("serve-breaker-failure"),
            "serve-breaker-failures");

  // Driver-only values are not part of the family: a driver that does not
  // read them rejects them.
  const char* driver_argv[] = {"driver", "--serve-deadline-ms=5",
                               "--serve-reload-period=2"};
  FlagParser driver_only(3, const_cast<char**>(driver_argv));
  ApplyServeFlags(driver_only, &options);
  EXPECT_FALSE(driver_only.Validate());
}

// ------------------------------------- one request path, two entry points

// Handle() is the blocking driver of the BeginAsync/PollAsync/FinishAsync
// state machine, so every outcome class must come out of both entry
// points as the same response and the same wide event.
enum class EntryPoint { kHandle, kAsync };

class ServeEntryPointTest
    : public ServeSwapTest,
      public ::testing::WithParamInterface<EntryPoint> {
 protected:
  struct Served {
    ServeResponse response;
    obs::RequestTelemetry event;
  };

  // Serves `request`, which must not queue, through `entry`.
  static ServeResponse Serve(EntryPoint entry, ServeRuntime& runtime,
                             const ServeRequest& request) {
    if (entry == EntryPoint::kHandle) return runtime.Handle(request);
    AsyncServe op = runtime.BeginAsync(request, runtime.clock()->NowMs());
    EXPECT_TRUE(runtime.PollAsync(op));
    return runtime.FinishAsync(op);
  }

  // The one wide event of `request_id`; a missing or duplicate event fails.
  static obs::RequestTelemetry EventOf(const serve::ServeTelemetry& telemetry,
                                       uint64_t request_id) {
    obs::RequestTelemetry found;
    int matches = 0;
    for (const obs::RequestTelemetry& event : telemetry.sampled_events()) {
      if (event.request_id == request_id) {
        found = event;
        ++matches;
      }
    }
    EXPECT_EQ(matches, 1) << "wide events for request " << request_id;
    return found;
  }

  // Runs one request of every outcome class through `entry` on a fresh
  // runtime with one serving slot and a one-deep queue, keyed by class.
  std::map<std::string, Served> ServeEveryOutcome(const std::string& path,
                                                  EntryPoint entry) {
    ManualClock clock;
    clock.Set(100);
    serve::ServeTelemetryOptions tel_options;
    tel_options.sample_every = 1;  // keep every event
    serve::ServeTelemetry telemetry(tel_options);
    ServeRuntimeOptions options;
    options.swap = ClusterPolicy(kEps);
    options.clock = &clock;
    options.telemetry = &telemetry;
    options.admission.max_concurrency = 1;
    options.admission.queue_depth = 1;
    options.admission.retry_after_ms = 40;
    ServeRuntime runtime(options);

    std::map<std::string, Served> served;
    // Every request emits exactly one wide event, by the time it returns.
    int64_t emitted = 0;
    auto record = [&](const std::string& name, ServeResponse response) {
      EXPECT_EQ(telemetry.recorded(), ++emitted) << name;
      served[name] = {response, EventOf(telemetry, response.request_id)};
    };
    const ServeRequest request{users_, 10, 1000};
    record("no_epoch", Serve(entry, runtime, request));
    EXPECT_TRUE(runtime.Activate(path).ok());

    record("ok", Serve(entry, runtime, request));
    ServeRequest tagged = request;
    tagged.request_id = 777;
    record("tagged", Serve(entry, runtime, tagged));
    record("empty_users", Serve(entry, runtime, {{}, 10, 1000}));
    record("top_n", Serve(entry, runtime, {users_, 0, 1000}));
    const graph::NodeId past_end = dataset_.social.num_nodes();
    record("bad_user",
           Serve(entry, runtime, {{users_[0], past_end}, 10, 1000}));
    record("deadline", Serve(entry, runtime, {users_, 10, 0}));

    // Fill the slot and the queue: the next arrival is shed.
    AsyncServe holder = runtime.BeginAsync(request, clock.NowMs());
    AsyncServe filler = runtime.BeginAsync(request, clock.NowMs());
    EXPECT_TRUE(holder.admitted);
    EXPECT_FALSE(runtime.PollAsync(filler));
    record("shed", Serve(entry, runtime, request));

    // Free the queue (the filler takes the slot), then queue a request
    // whose deadline passes while it waits.
    EXPECT_TRUE(runtime.FinishAsync(holder).status.ok());
    EXPECT_EQ(telemetry.recorded(), ++emitted);
    EXPECT_TRUE(runtime.PollAsync(filler));
    const ServeRequest short_deadline{users_, 10, 50};
    if (entry == EntryPoint::kHandle) {
      ServeResponse expired;
      std::thread waiter([&] { expired = runtime.Handle(short_deadline); });
      while (runtime.admission().waiting() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      clock.Advance(100);
      waiter.join();
      record("queued_expired", expired);
    } else {
      AsyncServe op = runtime.BeginAsync(short_deadline, clock.NowMs());
      EXPECT_FALSE(runtime.PollAsync(op));
      clock.Advance(100);
      EXPECT_TRUE(runtime.PollAsync(op));
      record("queued_expired", runtime.FinishAsync(op));
    }
    EXPECT_TRUE(runtime.FinishAsync(filler).status.ok());
    EXPECT_EQ(runtime.admission().in_flight(), 0);
    // Nine recorded requests plus the holder and the filler.
    EXPECT_EQ(telemetry.recorded(), ++emitted);
    EXPECT_EQ(telemetry.recorded(), 11);

    // Every event landed in the JSONL stream (sample_every=1).
    EXPECT_EQ(telemetry.sampled(), telemetry.recorded());
    const std::string jsonl = telemetry.EventsJsonl();
    EXPECT_NE(jsonl.find("\"outcome\": \"no_epoch\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"outcome\": \"invalid\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"id\": 777"), std::string::npos);
    return served;
  }
};

TEST_P(ServeEntryPointTest, TelemetryRecordsWideEventsPerOutcomeClass) {
  const std::string path = BuildArtifact("a.pvram", 21, kEps);
  const std::map<std::string, Served> served =
      ServeEveryOutcome(path, GetParam());
  const int64_t num_users = static_cast<int64_t>(users_.size());

  // Before activation: a no-epoch wide event with an auto-assigned
  // 1-based request id echoed on the response.
  const Served& no_epoch = served.at("no_epoch");
  EXPECT_EQ(no_epoch.response.status.code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(no_epoch.response.request_id, 1u);
  EXPECT_EQ(no_epoch.event.outcome, obs::RequestOutcome::kNoEpoch);
  EXPECT_EQ(no_epoch.event.arrival_ms, 100);

  // Served OK with a free slot: immediate admission, epoch identity and
  // request shape attached.
  const Served& ok = served.at("ok");
  ASSERT_TRUE(ok.response.status.ok());
  EXPECT_EQ(ok.response.request_id, 2u);
  EXPECT_EQ(ok.response.batch.lists.size(), users_.size());
  EXPECT_EQ(ok.event.outcome, obs::RequestOutcome::kOk);
  EXPECT_EQ(ok.event.admission, obs::AdmissionOutcome::kImmediate);
  EXPECT_EQ(ok.event.epoch, 1);
  EXPECT_EQ(ok.event.artifact_seed, 21u);
  EXPECT_EQ(ok.event.users, num_users);
  EXPECT_EQ(ok.event.top_n, 10);
  EXPECT_FALSE(ok.event.degraded);

  // A caller-supplied id is honored verbatim (idempotency keys,
  // cross-system correlation).
  EXPECT_EQ(served.at("tagged").response.request_id, 777u);
  EXPECT_EQ(served.at("tagged").event.request_id, 777u);

  // The empty-users fast path is OK without touching admission.
  const Served& empty = served.at("empty_users");
  EXPECT_TRUE(empty.response.status.ok());
  EXPECT_EQ(empty.event.outcome, obs::RequestOutcome::kOk);
  EXPECT_EQ(empty.event.admission, obs::AdmissionOutcome::kNone);

  // Caller bugs classify as invalid, with no fallback.
  for (const char* name : {"top_n", "bad_user"}) {
    const Served& bad = served.at(name);
    EXPECT_EQ(bad.response.status.code(), StatusCode::kInvalidArgument)
        << name;
    EXPECT_FALSE(bad.response.degraded_fallback) << name;
    EXPECT_EQ(bad.event.outcome, obs::RequestOutcome::kInvalid) << name;
    EXPECT_EQ(bad.event.admission, obs::AdmissionOutcome::kNone) << name;
  }

  const Served& late = served.at("deadline");
  EXPECT_EQ(late.response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.event.outcome, obs::RequestOutcome::kExpired);
  EXPECT_EQ(late.event.admission, obs::AdmissionOutcome::kExpired);
  EXPECT_TRUE(late.event.degraded);

  // Shed off the full queue with the hint captured at rejection.
  const Served& shed = served.at("shed");
  EXPECT_EQ(shed.response.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.response.status.message(),
            "serving queue full; retry in 40ms");
  EXPECT_EQ(shed.response.retry_after_ms, 40);
  EXPECT_TRUE(shed.response.degraded_fallback);
  EXPECT_EQ(shed.event.outcome, obs::RequestOutcome::kShed);
  EXPECT_EQ(shed.event.admission, obs::AdmissionOutcome::kShed);
  EXPECT_EQ(shed.event.retry_after_ms, 40);
  EXPECT_EQ(shed.event.users_degraded, num_users);

  // Queued, then expired while waiting: the whole wait is charged.
  const Served& queued = served.at("queued_expired");
  EXPECT_EQ(queued.response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(queued.response.retry_after_ms, 0);
  EXPECT_TRUE(queued.response.degraded_fallback);
  EXPECT_EQ(queued.event.outcome, obs::RequestOutcome::kExpired);
  EXPECT_EQ(queued.event.admission, obs::AdmissionOutcome::kExpired);
  EXPECT_EQ(queued.event.queue_wait_ms, 100);

  // The other entry point returns the same responses and emits the same
  // wide events, apart from timestamps.
  const EntryPoint other = GetParam() == EntryPoint::kHandle
                               ? EntryPoint::kAsync
                               : EntryPoint::kHandle;
  const std::map<std::string, Served> twin = ServeEveryOutcome(path, other);
  ASSERT_EQ(twin.size(), served.size());
  for (const auto& [name, mine] : served) {
    const Served& theirs = twin.at(name);
    const ServeResponse& a = mine.response;
    const ServeResponse& b = theirs.response;
    EXPECT_EQ(a.status.code(), b.status.code()) << name;
    EXPECT_EQ(a.status.message(), b.status.message()) << name;
    EXPECT_EQ(a.batch.lists, b.batch.lists) << name;
    EXPECT_EQ(a.epoch, b.epoch) << name;
    EXPECT_EQ(a.artifact_seed, b.artifact_seed) << name;
    EXPECT_EQ(a.retry_after_ms, b.retry_after_ms) << name;
    EXPECT_EQ(a.degraded_fallback, b.degraded_fallback) << name;
    EXPECT_EQ(a.request_id, b.request_id) << name;
    obs::RequestTelemetry event_a = mine.event;
    obs::RequestTelemetry event_b = theirs.event;
    for (obs::RequestTelemetry* e : {&event_a, &event_b}) {
      e->arrival_ms = e->resolve_ms = 0;
      e->latency_ms = 0.0;
    }
    EXPECT_EQ(obs::RequestTelemetryToJson(event_a),
              obs::RequestTelemetryToJson(event_b))
        << name;
  }
}

// An out-of-range user id is a caller bug caught at validation: it must
// never reach reconstruction (where it would index past the artifact),
// take an admission slot, or get a fallback list. In-range ids pass,
// repeated or not: a batch that names one user twice gets that user's
// list in both slots, under the fresh-noise GS as under Cluster.
TEST_P(ServeEntryPointTest, OutOfRangeUserIsInvalidArgument) {
  const std::string path = BuildArtifact("a.pvram", 21, kEps);
  const graph::NodeId num_users = dataset_.social.num_nodes();
  const std::vector<std::pair<std::vector<graph::NodeId>, graph::NodeId>>
      cases = {{{-1}, -1},
               {{num_users}, num_users},
               {{100000}, 100000},
               {{users_[0], users_[1], num_users + 5, -1, users_[2]},
                num_users + 5}};
  // With free slots a bad id would reach reconstruction; with none, any
  // request that enters admission is shed.
  for (int64_t slots : {int64_t{4}, int64_t{0}}) {
    ManualClock clock;
    serve::ServeTelemetryOptions tel_options;
    tel_options.sample_every = 1;
    serve::ServeTelemetry telemetry(tel_options);
    ServeRuntimeOptions options;
    options.swap = ClusterPolicy(kEps);
    options.clock = &clock;
    options.telemetry = &telemetry;
    options.admission.max_concurrency = slots;
    options.admission.queue_depth = 0;
    ServeRuntime runtime(options);
    ASSERT_TRUE(runtime.Activate(path).ok());

    for (const auto& [users, bad] : cases) {
      ServeResponse response = Serve(GetParam(), runtime, {users, 10, 1000});
      EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument)
          << bad;
      EXPECT_EQ(response.status.message(),
                "user id " + std::to_string(bad) + " out of range [0, " +
                    std::to_string(num_users) + ")");
      EXPECT_FALSE(response.degraded_fallback);
      EXPECT_TRUE(response.batch.lists.empty());
      EXPECT_EQ(response.epoch, 1);
      const obs::RequestTelemetry event =
          EventOf(telemetry, response.request_id);
      EXPECT_EQ(event.outcome, obs::RequestOutcome::kInvalid);
      EXPECT_EQ(event.admission, obs::AdmissionOutcome::kNone);
    }

    // The good ids alone are served, or shed when there is no slot.
    ServeResponse good =
        Serve(GetParam(), runtime, {{users_[0], users_[1], users_[2]}, 10,
                                    1000});
    EXPECT_EQ(good.status.code(), slots > 0 ? StatusCode::kOk
                                            : StatusCode::kResourceExhausted);
    EXPECT_EQ(good.batch.lists.size(), 3u);
    EXPECT_EQ(runtime.admission().in_flight(), 0);
  }

  for (const char* mechanism : {"Cluster", "GS"}) {
    ManualClock clock;
    ServeRuntimeOptions options;
    options.swap = ClusterPolicy(kEps);
    options.swap.spec.mechanism = mechanism;
    options.clock = &clock;
    ServeRuntime runtime(options);
    ASSERT_TRUE(runtime.Activate(path).ok()) << mechanism;
    ServeResponse repeated = Serve(GetParam(), runtime, {{3, 3}, 5, 1000});
    ASSERT_TRUE(repeated.status.ok())
        << mechanism << ": " << repeated.status.ToString();
    ASSERT_EQ(repeated.batch.lists.size(), 2u) << mechanism;
    EXPECT_EQ(repeated.batch.lists[0].size(), 5u) << mechanism;
    EXPECT_EQ(repeated.batch.lists[0], repeated.batch.lists[1]) << mechanism;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EntryPoints, ServeEntryPointTest,
    ::testing::Values(EntryPoint::kHandle, EntryPoint::kAsync),
    [](const ::testing::TestParamInfo<EntryPoint>& info) {
      return info.param == EntryPoint::kHandle ? std::string("Handle")
                                               : std::string("Async");
    });

// ------------------------------------------- telemetry wide events

TEST_F(ServeSwapTest, TelemetryClassifiesShedWithRetryHint) {
  const std::string path = BuildArtifact("a.pvram", 21, kEps);
  ManualClock clock;
  serve::ServeTelemetryOptions tel_options;
  tel_options.sample_every = 64;  // shed events bypass the sampler
  serve::ServeTelemetry telemetry(tel_options);
  ServeRuntimeOptions options;
  options.swap = ClusterPolicy(kEps);
  options.clock = &clock;
  options.telemetry = &telemetry;
  options.admission.max_concurrency = 0;
  options.admission.queue_depth = 0;
  options.admission.retry_after_ms = 40;
  ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(path).ok());

  ServeRequest request{users_, 10, 1000};
  ServeResponse shed = runtime.Handle(request);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  std::vector<obs::RequestTelemetry> events = telemetry.sampled_events();
  ASSERT_EQ(events.size(), 1u);  // non-OK is always kept
  EXPECT_EQ(events[0].outcome, obs::RequestOutcome::kShed);
  EXPECT_EQ(events[0].admission, obs::AdmissionOutcome::kShed);
  EXPECT_TRUE(events[0].degraded);
  EXPECT_EQ(events[0].retry_after_ms, 40);
  EXPECT_EQ(events[0].users_degraded,
            static_cast<int64_t>(users_.size()));
}

TEST(ServeTelemetryTest, WindowsBreachAndAlertsFlowIntoJsonl) {
  serve::ServeTelemetryOptions opts;
  opts.sample_every = 1;
  opts.window_ms = 100;
  opts.budget.p99_ms = 5.0;
  opts.budget.lookback = 4;
  opts.budget.burn_threshold = 0.2;
  serve::ServeTelemetry telemetry(opts);

  obs::RequestTelemetry event;
  event.outcome = obs::RequestOutcome::kOk;
  for (int64_t i = 0; i < 4; ++i) {
    event.request_id = static_cast<uint64_t>(i) + 1;
    event.arrival_ms = i * 100 + 10;
    event.resolve_ms = event.arrival_ms;
    event.latency_ms = i < 2 ? 1.0 : 80.0;  // last two windows breach
    telemetry.Record(event);
  }
  telemetry.Flush(400);

  EXPECT_EQ(telemetry.recorded(), 4);
  EXPECT_EQ(telemetry.window_breaches(), 2);
  // Alerts on the two breaching windows, plus the empty Flush window
  // that closes while the lookback ring is still burning at 0.5.
  EXPECT_EQ(telemetry.burn_alerts(), 3);
  EXPECT_DOUBLE_EQ(telemetry.burn_rate(), 0.5);
  obs::WindowSeries series = telemetry.series();
  // Four event windows plus the empty partial Flush closes at 400 ms.
  ASSERT_EQ(series.windows.size(), 5u);
  EXPECT_FALSE(series.windows[1].breach);
  EXPECT_TRUE(series.windows[2].breach);
  EXPECT_TRUE(series.windows[3].breach);
  EXPECT_FALSE(series.windows[4].breach);
  const std::string jsonl = telemetry.EventsJsonl();
  EXPECT_NE(jsonl.find("\"type\": \"alert\""), std::string::npos);
  EXPECT_NE(jsonl.find("p99"), std::string::npos);

  obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Instance().Snapshot();
  for (const obs::GaugeSample& g : snapshot.gauges) {
    if (g.name == "privrec.serve.slo_burn_rate") {
      EXPECT_DOUBLE_EQ(g.value, 0.5);
    }
  }
}

// The JSONL stream, line for line: an alert line sits right before the
// request line recorded after it fired, and alerts that fire once the
// event cap is reached go at the end, after the last retained request.
TEST(ServeTelemetryTest, JsonlInterleavesAlertsInEmissionOrder) {
  serve::ServeTelemetryOptions opts;
  opts.sample_every = 1;
  opts.window_ms = 100;
  opts.budget.p99_ms = 5.0;
  opts.budget.lookback = 4;
  opts.budget.burn_threshold = 0.2;
  opts.max_events = 4;
  serve::ServeTelemetry telemetry(opts);

  std::vector<obs::RequestTelemetry> events;
  for (int64_t i = 0; i < 5; ++i) {
    obs::RequestTelemetry event;
    event.outcome = obs::RequestOutcome::kOk;
    event.request_id = static_cast<uint64_t>(i) + 1;
    event.arrival_ms = i * 100 + 10;
    event.resolve_ms = event.arrival_ms;
    event.latency_ms = i < 2 ? 1.0 : 80.0;  // windows 2, 3, 4 breach
    telemetry.Record(event);
    events.push_back(event);
  }
  telemetry.Flush(500);
  EXPECT_EQ(telemetry.dropped_events(), 1);

  // Window 2 closes when event 4 arrives and fires the first alert;
  // window 3 closes when the capped event 5 arrives, and the flush closes
  // window 4.
  const std::vector<obs::WindowAlert> alerts = telemetry.series().alerts;
  ASSERT_GE(alerts.size(), 3u);
  EXPECT_EQ(alerts[0].at_ms, 300);
  auto line = [](const std::string& json) { return json + "\n"; };
  std::string expected;
  for (size_t k = 0; k < 3; ++k) {
    expected += line(obs::RequestTelemetryToJson(events[k]));
  }
  expected += line(obs::WindowAlertToJson(alerts[0]));
  expected += line(obs::RequestTelemetryToJson(events[3]));
  for (size_t a = 1; a < alerts.size(); ++a) {
    expected += line(obs::WindowAlertToJson(alerts[a]));
  }
  EXPECT_EQ(telemetry.EventsJsonl(), expected);
}

TEST(ServeTelemetryTest, EventCapDropsAreCountedNeverSilent) {
  serve::ServeTelemetryOptions opts;
  opts.sample_every = 1;
  opts.max_events = 2;
  serve::ServeTelemetry telemetry(opts);
  obs::RequestTelemetry event;
  event.outcome = obs::RequestOutcome::kOk;
  for (int64_t i = 0; i < 5; ++i) {
    event.request_id = static_cast<uint64_t>(i) + 1;
    event.resolve_ms = i;
    telemetry.Record(event);
  }
  telemetry.Flush(250);
  EXPECT_EQ(telemetry.recorded(), 5);
  EXPECT_EQ(telemetry.sampled(), 5);
  EXPECT_EQ(telemetry.dropped_events(), 3);
  EXPECT_EQ(telemetry.sampled_events().size(), 2u);
  // The window aggregates still saw every request.
  obs::WindowSeries series = telemetry.series();
  ASSERT_GE(series.windows.size(), 1u);
  EXPECT_EQ(series.windows[0].requests, 5);
}

// --------------------------------------------------------- statusz

TEST_F(ServeSwapTest, StatuszSurfacesRuntimeAndTelemetryState) {
  const std::string path = BuildArtifact("a.pvram", 21, kEps);
  ManualClock clock;
  clock.Set(50);
  serve::ServeTelemetryOptions tel_options;
  tel_options.sample_every = 1;
  tel_options.window_ms = 100;
  serve::ServeTelemetry telemetry(tel_options);
  ServeRuntimeOptions options;
  options.swap = ClusterPolicy(kEps);
  options.clock = &clock;
  options.telemetry = &telemetry;
  options.admission.max_concurrency = 4;
  options.admission.queue_depth = 8;
  ServeRuntime runtime(options);

  serve::RuntimeIntrospection before = runtime.Introspect();
  EXPECT_FALSE(before.has_epoch);
  EXPECT_EQ(before.now_ms, 50);
  EXPECT_NE(serve::StatuszText(before).find("none (no artifact"),
            std::string::npos);

  ASSERT_TRUE(runtime.Activate(path).ok());
  ServeRequest request{users_, 10, 1000};
  ASSERT_TRUE(runtime.Handle(request).status.ok());
  clock.Advance(49);  // flush inside [0,100): closes it as the partial
  telemetry.Flush(clock.NowMs());

  serve::RuntimeIntrospection status = runtime.Introspect();
  EXPECT_TRUE(status.has_epoch);
  EXPECT_EQ(status.epoch, 1);
  EXPECT_EQ(status.artifact_seed, 21u);
  EXPECT_DOUBLE_EQ(status.epsilon, kEps);
  EXPECT_EQ(status.num_users, 60);
  EXPECT_EQ(status.shard_count, 1);
  EXPECT_EQ(status.breaker_state, "closed");
  EXPECT_EQ(status.swaps, 1);
  EXPECT_EQ(status.admission_max_concurrency, 4);
  EXPECT_EQ(status.admission_queue_depth, 8);
  EXPECT_EQ(status.admission_in_flight, 0);
  EXPECT_FALSE(status.kernel_dispatch.empty());
  ASSERT_TRUE(status.has_telemetry);
  EXPECT_EQ(status.telemetry_recorded, 1);
  EXPECT_TRUE(status.has_last_window);
  EXPECT_EQ(status.last_window.requests, 1);

  const std::string text = serve::StatuszText(status);
  EXPECT_NE(text.find("epoch:      1"), std::string::npos);
  EXPECT_NE(text.find("breaker:    closed"), std::string::npos);
  EXPECT_NE(text.find("telemetry:  1 recorded"), std::string::npos);
  EXPECT_NE(text.find("kernels:    dispatch " + status.kernel_dispatch),
            std::string::npos);

  const std::string json = serve::StatuszJson(status);
  EXPECT_NE(json.find("\"artifact_seed\": 21"), std::string::npos);
  EXPECT_NE(json.find("\"breaker\": {\"state\": \"closed\""),
            std::string::npos);
  EXPECT_NE(json.find("\"telemetry\": {\"recorded\": 1"),
            std::string::npos);
  EXPECT_FALSE(status.serve_counters.empty());
  for (const obs::CounterSample& c : status.serve_counters) {
    EXPECT_EQ(c.name.rfind("privrec.serve.", 0), 0u) << c.name;
  }
}

// The --telemetry-* flags land in ServeTelemetryOptions and its window
// budget, same contract as the other flag families.
TEST(TelemetryFlagsTest, ValuesParsedAndTyposSuggested) {
  const char* argv[] = {"driver",
                        "--telemetry-sample-every=8",
                        "--telemetry-slow-ms=25",
                        "--telemetry-window-ms=500",
                        "--telemetry-burn-lookback=12",
                        "--telemetry-burn-threshold=0.5",
                        "--telemetry-window-p99-ms=30",
                        "--telemetry-window-shed-rate=0.4"};
  FlagParser flags(8, const_cast<char**>(argv));
  serve::ServeTelemetryOptions options;
  ApplyTelemetryFlags(flags, &options);
  EXPECT_TRUE(flags.Validate());
  EXPECT_EQ(options.sample_every, 8);
  EXPECT_DOUBLE_EQ(options.slow_ms, 25.0);
  EXPECT_EQ(options.window_ms, 500);
  EXPECT_EQ(options.budget.lookback, 12);
  EXPECT_DOUBLE_EQ(options.budget.burn_threshold, 0.5);
  EXPECT_DOUBLE_EQ(options.budget.p99_ms, 30.0);
  EXPECT_DOUBLE_EQ(options.budget.max_shed_rate, 0.4);

  const char* none_argv[] = {"driver"};
  FlagParser none(1, const_cast<char**>(none_argv));
  serve::ServeTelemetryOptions defaults;
  defaults.window_ms = 99;
  ApplyTelemetryFlags(none, &defaults);
  EXPECT_EQ(defaults.window_ms, 99);
  EXPECT_EQ(defaults.sample_every, serve::ServeTelemetryOptions{}.sample_every);
  EXPECT_DOUBLE_EQ(defaults.budget.p99_ms, obs::WindowBudget{}.p99_ms);

  const char* typo_argv[] = {"driver", "--telemetry-sampel-every=4"};
  FlagParser typo(2, const_cast<char**>(typo_argv));
  ApplyTelemetryFlags(typo, &options);
  EXPECT_FALSE(typo.Validate());
  EXPECT_EQ(typo.SuggestionFor("telemetry-sampel-every"),
            "telemetry-sample-every");
  EXPECT_EQ(typo.SuggestionFor("telemetry-burn-treshold"),
            "telemetry-burn-threshold");

  const char* driver_argv[] = {"driver", "--telemetry-jsonl=events.jsonl",
                               "--statusz-every=2", "--statusz-out=s.txt"};
  FlagParser driver_only(4, const_cast<char**>(driver_argv));
  ApplyTelemetryFlags(driver_only, &options);
  EXPECT_FALSE(driver_only.Validate());
}

// The --load-* flags land in LoadRunOptions (schedule, storm period, wall
// threads) and SloBudget, same contract.
TEST(LoadFlagsTest, ValuesParsedAndTyposSuggested) {
  const char* argv[] = {"driver",
                        "--load-rps=5000",
                        "--load-duration-ms=1500",
                        "--load-seed=9",
                        "--load-zipf-s=1.3",
                        "--load-users-per-request=6",
                        "--load-burst-factor=8",
                        "--load-burst-period-ms=400",
                        "--load-burst-duration-ms=80",
                        "--load-swap-period-ms=125",
                        "--load-threads=2",
                        "--load-slo-p50-ms=2",
                        "--load-slo-p99-ms=20",
                        "--load-slo-p999-ms=80",
                        "--load-slo-shed-rate=0.2",
                        "--load-slo-rollback-rate=0.5"};
  FlagParser flags(16, const_cast<char**>(argv));
  loadgen::LoadRunOptions run;
  loadgen::SloBudget budget;
  ApplyLoadFlags(flags, &run, &budget);
  EXPECT_TRUE(flags.Validate());
  EXPECT_DOUBLE_EQ(run.load.rps, 5000.0);
  EXPECT_EQ(run.load.duration_ms, 1500);
  EXPECT_EQ(run.load.seed, 9u);
  EXPECT_DOUBLE_EQ(run.load.zipf_s, 1.3);
  EXPECT_EQ(run.load.users_per_request, 6);
  EXPECT_DOUBLE_EQ(run.load.burst_factor, 8.0);
  EXPECT_EQ(run.load.burst_period_ms, 400);
  EXPECT_EQ(run.load.burst_duration_ms, 80);
  EXPECT_EQ(run.storm.period_ms, 125);
  EXPECT_EQ(run.wall_threads, 2);
  EXPECT_DOUBLE_EQ(budget.p50_ms, 2.0);
  EXPECT_DOUBLE_EQ(budget.p99_ms, 20.0);
  EXPECT_DOUBLE_EQ(budget.p999_ms, 80.0);
  EXPECT_DOUBLE_EQ(budget.max_shed_rate, 0.2);
  EXPECT_DOUBLE_EQ(budget.max_rollback_rate, 0.5);

  const char* none_argv[] = {"driver"};
  FlagParser none(1, const_cast<char**>(none_argv));
  loadgen::LoadRunOptions default_run;
  default_run.load.num_users = 7;
  loadgen::SloBudget default_budget;
  ApplyLoadFlags(none, &default_run, &default_budget);
  EXPECT_EQ(default_run.load.num_users, 7);
  EXPECT_DOUBLE_EQ(default_run.load.rps, loadgen::LoadSpec{}.rps);
  EXPECT_EQ(default_run.storm.period_ms, 0);
  EXPECT_EQ(default_run.wall_threads, loadgen::LoadRunOptions{}.wall_threads);
  EXPECT_DOUBLE_EQ(default_budget.p99_ms, loadgen::SloBudget{}.p99_ms);

  const char* typo_argv[] = {"driver", "--load-swap-perod-ms=5"};
  FlagParser typo(2, const_cast<char**>(typo_argv));
  ApplyLoadFlags(typo, &run, &budget);
  EXPECT_FALSE(typo.Validate());
  EXPECT_EQ(typo.SuggestionFor("load-swap-perod-ms"), "load-swap-period-ms");
  EXPECT_EQ(typo.SuggestionFor("load-slo-p9-ms"), "load-slo-p99-ms");
  EXPECT_EQ(typo.SuggestionFor("load-durration-ms"), "load-duration-ms");

  const char* driver_argv[] = {"driver", "--load-swap-storm", "--load-wall",
                               "--load-report=out.json"};
  FlagParser driver_only(4, const_cast<char**>(driver_argv));
  ApplyLoadFlags(driver_only, &run, &budget);
  EXPECT_FALSE(driver_only.Validate());
}

// The --stream-* flags land in StreamPipelineOptions (journal, clustering
// drift, republish policy), same contract.
TEST(StreamFlagsTest, ValuesParsedAndTyposSuggested) {
  const char* argv[] = {"driver",
                        "--stream-wal=deltas.wal",
                        "--stream-fsync-every=4",
                        "--stream-drift-threshold=0.2",
                        "--stream-republish-drift=0.1",
                        "--stream-republish-growth=0.5",
                        "--stream-republish-every=32",
                        "--stream-min-deltas=3"};
  FlagParser flags(8, const_cast<char**>(argv));
  stream::StreamPipelineOptions options;
  ApplyStreamFlags(flags, &options);
  EXPECT_TRUE(flags.Validate());
  EXPECT_EQ(options.ingest.wal_path, "deltas.wal");
  EXPECT_EQ(options.ingest.fsync_every, 4);
  EXPECT_DOUBLE_EQ(options.community.drift_threshold, 0.2);
  EXPECT_DOUBLE_EQ(options.republish.drift_threshold, 0.1);
  EXPECT_DOUBLE_EQ(options.republish.min_growth, 0.5);
  EXPECT_EQ(options.republish.every_deltas, 32);
  EXPECT_EQ(options.republish.min_deltas_between, 3);

  const char* none_argv[] = {"driver"};
  FlagParser none(1, const_cast<char**>(none_argv));
  stream::StreamPipelineOptions defaults;
  defaults.ingest.wal_path = "kept.wal";
  ApplyStreamFlags(none, &defaults);
  EXPECT_EQ(defaults.ingest.wal_path, "kept.wal");
  EXPECT_EQ(defaults.ingest.fsync_every, stream::EdgeStreamOptions{}.fsync_every);
  EXPECT_DOUBLE_EQ(defaults.community.drift_threshold,
                   community::IncrementalCommunityOptions{}.drift_threshold);
  EXPECT_EQ(defaults.republish.min_deltas_between,
            stream::RepublishPolicy{}.min_deltas_between);

  const char* typo_argv[] = {"driver", "--stream-republish-evry=4"};
  FlagParser typo(2, const_cast<char**>(typo_argv));
  ApplyStreamFlags(typo, &options);
  EXPECT_FALSE(typo.Validate());
  EXPECT_EQ(typo.SuggestionFor("stream-republish-evry"),
            "stream-republish-every");
  EXPECT_EQ(typo.SuggestionFor("stream-fsync-evry"), "stream-fsync-every");
  EXPECT_EQ(typo.SuggestionFor("stream-min-delta"), "stream-min-deltas");
}

// ------------------------------------------- lazy global-average row

// Satellite: BuildDerived no longer pays the O(clusters × items)
// global-average pass, so a swap storm publishes epochs without it; the
// first fallback-tier request computes the row once per epoch (traced as
// artifact.global_average) and every later request reuses it.
TEST_F(ServeSwapTest, SwapSkipsGlobalAverageUntilFallbackNeedsIt) {
  const std::string a = BuildArtifact("a.pvram", 41, kEps);
  const std::string b = BuildArtifact("b.pvram", 42, kEps);

  SwapPolicy policy = ClusterPolicy(kEps);
  policy.probe_users = 0;  // probes may touch isolated users; isolate the
                           // swap path itself for the span accounting
  ServeRuntimeOptions options;
  options.swap = policy;
  ServeRuntime runtime(options);

  obs::Tracer::Instance().Clear();
  obs::Tracer::Instance().SetEnabled(true);
  auto global_spans = [] {
    int64_t n = 0;
    for (const obs::SpanRecord& span : obs::Tracer::Instance().Snapshot()) {
      if (span.name == "artifact.global_average") ++n;
    }
    return n;
  };

  // A two-epoch swap storm: neither activation computes the row.
  ASSERT_TRUE(runtime.Activate(a).ok());
  ASSERT_TRUE(runtime.Activate(b).ok());
  EXPECT_EQ(global_spans(), 0);

  // First fallback-tier answer (deadline 0 expires at admission) pays
  // the pass exactly once...
  ServeResponse first = runtime.Handle({users_, 10, 0});
  EXPECT_EQ(first.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(first.degraded_fallback);
  const int64_t after_first = global_spans();
  EXPECT_EQ(after_first, 1);

  // ...and the cached row serves every later fallback on this epoch.
  ServeResponse second = runtime.Handle({users_, 10, 0});
  EXPECT_TRUE(second.degraded_fallback);
  EXPECT_EQ(global_spans(), after_first);
  EXPECT_EQ(second.batch.lists, first.batch.lists);

  obs::Tracer::Instance().SetEnabled(false);
  obs::Tracer::Instance().Clear();
}

}  // namespace
}  // namespace privrec
