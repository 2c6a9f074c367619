// Deterministic chaos soak for the serving runtime: a multi-threaded
// request loop runs against a ServeRuntime while the main thread performs
// hundreds of hot swaps, alternating good artifacts with corrupted files
// (bit flip, truncation) and — in fault-injection builds — armed I/O
// errors and latency on the artifact read path.
//
// Invariants asserted, from the worker threads' point of view:
//   - zero crashes and no torn reads: every successful response is
//     BIT-IDENTICAL to the precomputed expectation for the artifact
//     generation (identified by provenance seed) that served it — a
//     response can never mix two epochs;
//   - corrupt artifacts are never visible: every observed seed belongs to
//     one of the two good artifacts;
//   - every rejection carries a typed status (kResourceExhausted /
//     kDeadlineExceeded), and shed requests that got the degraded
//     fallback carry their epoch's exact global-average ranking.
//
// gtest assertions are not thread-safe from raw std::threads, so workers
// record failures in atomics + a mutex-guarded message checked at join.
//
// PRIVREC_CHAOS_ITERS overrides the swap-iteration count (default 500,
// matching the CI floor; sanitizer runs may dial it up or down).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "artifact_files.h"
#include "artifact/builder.h"
#include "artifact/serving.h"
#include "artifact/shard_layout.h"
#include "common/fault_injection.h"
#include "community/louvain.h"
#include "core/recommendation.h"
#include "data/synthetic.h"
#include "serve/runtime.h"
#include "similarity/common_neighbors.h"

namespace privrec {
namespace {

namespace fs = std::filesystem;

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

int64_t ChaosIterations() {
  if (const char* env = std::getenv("PRIVREC_CHAOS_ITERS")) {
    return std::max<int64_t>(1, std::atoll(env));
  }
  return 500;
}

struct Expectation {
  std::vector<core::RecommendationList> lists;
  core::RecommendationList fallback;
};

TEST(ServeChaosSoak, HotSwapsUnderFaultsAndConcurrentRequests) {
  const fs::path dir = fs::temp_directory_path() / "privrec_serve_chaos";
  fs::remove_all(dir);
  fs::create_directories(dir);

  data::Dataset dataset = data::MakeTinyDataset(60, 40, /*seed=*/7);
  auto workload = similarity::SimilarityWorkload::Compute(
      dataset.social, similarity::CommonNeighbors());
  auto louvain =
      community::RunLouvain(dataset.social, {.restarts = 2, .seed = 3});
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < dataset.social.num_nodes(); u += 3) {
    users.push_back(u);
  }
  constexpr int64_t kTopN = 5;
  constexpr double kEps = 0.7;

  auto build = [&](const std::string& name, uint64_t seed) {
    artifact::ModelArtifactBuilder builder(&dataset.social,
                                           &dataset.preferences);
    builder.SetPartition(&louvain.partition);
    builder.SetWorkload(&workload);
    artifact::BuildOptions build_options;
    build_options.epsilon = kEps;
    build_options.seed = seed;
    auto model = builder.Build(build_options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    const std::string path = (dir / name).string();
    EXPECT_TRUE(serving::SaveShardedArtifact(*model, path).ok());
    return path;
  };
  const std::string good_a = build("good_a.pvram", 101);
  const std::string good_b = build("good_b.pvram", 202);

  // The oracle: per-generation expected output, precomputed once. Cluster
  // serving is stateless post-processing of the frozen release, so EVERY
  // request confined to one generation must reproduce these bits exactly.
  std::map<uint64_t, Expectation> expected;
  for (const std::string& path : {good_a, good_b}) {
    auto engine = serving::ServingEngine::Load(path);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    serving::ServeSpec spec;
    spec.mechanism = "Cluster";
    spec.epsilon = kEps;
    auto server = serving::MakeServeRecommender(&*engine, spec);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    Expectation e;
    e.lists = (*server)->Recommend(users, kTopN).lists;
    e.fallback = core::TopNFromDense(engine->global_average(), kTopN);
    expected[engine->model().provenance.seed] = std::move(e);
  }
  ASSERT_EQ(expected.size(), 2u);

  // Corruptions, as manifest copies that name the good shard files: a
  // payload bit flip (CRC failure) and a truncation.
  const std::string bitflip = (dir / "bitflip.pvram").string();
  const std::string trunc = (dir / "trunc.pvram").string();
  test_artifacts::CorruptManifestCopy(good_a, bitflip);
  {
    std::string half = ReadAllBytes(good_b);
    half.resize(half.size() / 2);
    WriteAllBytes(trunc, half);
  }

  serve::ServeRuntimeOptions options;
  options.swap.spec.mechanism = "Cluster";
  options.swap.spec.epsilon = kEps;
  options.admission.max_concurrency = 2;
  options.admission.queue_depth = 2;
  options.admission.retry_after_ms = 1;
  // Short cooldown: the breaker trips on the corruption bursts and
  // recovers within the soak instead of latching every reload out.
  options.breaker.failure_threshold = 3;
  options.breaker.cooldown_ms = 1;
  serve::ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(good_a).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> served_ok{0};
  std::atomic<int64_t> degraded{0};
  std::mutex failure_mu;
  std::string first_failure;
  auto fail = [&](const std::string& message) {
    failures.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(failure_mu);
    if (first_failure.empty()) first_failure = message;
  };

  auto worker = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      serve::ServeRequest request{users, kTopN, /*deadline_ms=*/2000};
      serve::ServeResponse response = runtime.Handle(request);
      auto it = expected.find(response.artifact_seed);
      if (it == expected.end()) {
        fail("response from unknown artifact generation (seed " +
             std::to_string(response.artifact_seed) +
             "): a corrupt artifact became visible");
        continue;
      }
      if (response.status.ok()) {
        if (response.epoch <= 0) {
          fail("ok response without an epoch id");
        } else if (response.batch.lists != it->second.lists) {
          fail("torn or stale read: response bits do not match the "
               "generation that served it (seed " +
               std::to_string(response.artifact_seed) + ")");
        }
        served_ok.fetch_add(1, std::memory_order_relaxed);
      } else if (response.status.code() == StatusCode::kResourceExhausted ||
                 response.status.code() == StatusCode::kDeadlineExceeded) {
        if (!response.degraded_fallback) {
          fail("rejection without the degraded fallback tier: " +
               response.status.ToString());
        } else if (response.batch.lists.size() != users.size()) {
          fail("fallback batch has wrong shape");
        } else {
          for (const core::RecommendationList& list : response.batch.lists) {
            if (list != it->second.fallback) {
              fail("fallback ranking does not match the serving epoch's "
                   "global-average row");
              break;
            }
          }
          for (const core::DegradationInfo& info :
               response.batch.degradation) {
            if (info.reason != core::DegradationReason::kLoadShed) {
              fail("shed response missing the kLoadShed degradation tag");
              break;
            }
          }
        }
        degraded.fetch_add(1, std::memory_order_relaxed);
      } else {
        fail("untyped rejection from Handle: " + response.status.ToString());
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);

  // The swap storm. Every failure must be a typed status and must leave a
  // good generation published.
  const int64_t iterations = ChaosIterations();
  int64_t rejected_corrupt = 0;
  for (int64_t iter = 0; iter < iterations; ++iter) {
    Status swapped;
    switch (iter % 6) {
      case 0:
        swapped = runtime.Activate(good_a);
        break;
      case 1:
        swapped = runtime.Activate(bitflip);
        if (swapped.ok()) fail("bit-flipped artifact activated");
        ++rejected_corrupt;
        break;
      case 2:
        swapped = runtime.Activate(good_b);
        break;
      case 3:
        swapped = runtime.Activate(trunc);
        if (swapped.ok()) fail("truncated artifact activated");
        ++rejected_corrupt;
        break;
      case 4:
        fault::FaultInjector::Instance().Arm(
            "artifact.read", {fault::FaultKind::kIoError, 1, 1});
        swapped = runtime.Activate(good_a);
        fault::FaultInjector::Instance().Reset();
        if (swapped.ok()) fail("armed io_error did not fail the reload");
        break;
      case 5:
        // Latency faults stall the read but the artifact is intact: the
        // swap must still succeed (or be breaker-rejected, never corrupt).
        fault::FaultInjector::Instance().Arm(
            "artifact.read", {fault::FaultKind::kLatency, 1, 2});
        swapped = runtime.Activate(good_b);
        fault::FaultInjector::Instance().Reset();
        break;
    }
    if (!swapped.ok() && swapped.code() == StatusCode::kOk) {
      fail("non-ok swap with kOk code");  // unreachable guard
    }
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0) << first_failure;
  EXPECT_GT(served_ok.load(), 0);
  EXPECT_GE(rejected_corrupt, iterations / 3);
  // Rollbacks were observed through the metrics-facing counters and the
  // published generation is one of the good ones.
  EXPECT_GE(runtime.swapper().rollbacks(), rejected_corrupt);
  EXPECT_GT(runtime.swapper().swaps(), 0);
  EXPECT_FALSE(runtime.swapper().last_error().empty());
  const auto live = runtime.swapper().Acquire();
  ASSERT_NE(live, nullptr);
  EXPECT_TRUE(live->artifact_seed == 101 || live->artifact_seed == 202);

  fs::remove_all(dir);
}

// The same storm over SHARDED artifacts served zero-copy by the same
// runtime: each corrupt candidate damages exactly one shard
// of its set (a payload bit flip, a deleted shard file), plus armed
// shard-read faults. Invariants are unchanged — a batch is bit-identical
// to exactly one good generation (no torn reads across a swap, no batch
// mixing shards of two epochs), corrupt shard sets never activate, and
// rollback pins the last good epoch.
TEST(ServeChaosSoak, ShardedHotSwapsWithCorruptShards) {
  const fs::path dir = fs::temp_directory_path() / "privrec_shard_chaos";
  fs::remove_all(dir);
  fs::create_directories(dir);

  data::Dataset dataset = data::MakeTinyDataset(60, 40, /*seed=*/7);
  auto workload = similarity::SimilarityWorkload::Compute(
      dataset.social, similarity::CommonNeighbors());
  auto louvain =
      community::RunLouvain(dataset.social, {.restarts = 2, .seed = 3});
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < dataset.social.num_nodes(); u += 3) {
    users.push_back(u);
  }
  constexpr int64_t kTopN = 5;
  constexpr double kEps = 0.7;
  constexpr int64_t kShards = 3;

  // Each artifact lives in its own directory: a sharded artifact is a
  // manifest plus sibling shard files, and the corrupt variants damage
  // their own copies, never a live generation's files.
  auto build = [&](const std::string& name, uint64_t seed) {
    artifact::ModelArtifactBuilder builder(&dataset.social,
                                           &dataset.preferences);
    builder.SetPartition(&louvain.partition);
    builder.SetWorkload(&workload);
    artifact::BuildOptions build_options;
    build_options.epsilon = kEps;
    build_options.seed = seed;
    auto model = builder.Build(build_options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    fs::create_directories(dir / name);
    const std::string path = (dir / name / "artifact.pvram").string();
    EXPECT_TRUE(
        serving::SaveShardedArtifact(*model, path, {.shards = kShards})
            .ok());
    return path;
  };
  const std::string good_a = build("good_a", 101);
  const std::string good_b = build("good_b", 202);

  std::map<uint64_t, Expectation> expected;
  for (const std::string& path : {good_a, good_b}) {
    auto engine = serving::ServingEngine::Load(path);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_GT(engine->shard_count(), 1u);
    serving::ServeSpec spec;
    spec.mechanism = "Cluster";
    spec.epsilon = kEps;
    auto server = serving::MakeServeRecommender(&*engine, spec);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    Expectation e;
    e.lists = (*server)->Recommend(users, kTopN).lists;
    e.fallback = core::TopNFromDense(engine->global_average(), kTopN);
    expected[engine->model().provenance.seed] = std::move(e);
  }
  ASSERT_EQ(expected.size(), 2u);

  // One corrupt shard per set: a bit flip inside shard 1's noisy-row
  // payload (located through the section table so it never lands in
  // alignment padding), and shard 2 deleted outright.
  const std::string bitflip = build("bitflip", 101);
  test_artifacts::FlipPayloadBit(
      test_artifacts::ShardPaths(bitflip)[1], serving::kShardMagic,
      static_cast<uint32_t>(serving::ShardSectionId::kNoisyRows));
  const std::string missing = build("missing", 202);
  fs::remove(test_artifacts::ShardPaths(missing)[2]);

  serve::ServeRuntimeOptions options;
  options.swap.spec.mechanism = "Cluster";
  options.swap.spec.epsilon = kEps;
  options.admission.max_concurrency = 2;
  options.admission.queue_depth = 2;
  options.admission.retry_after_ms = 1;
  options.breaker.failure_threshold = 3;
  options.breaker.cooldown_ms = 1;
  serve::ServeRuntime runtime(options);
  ASSERT_TRUE(runtime.Activate(good_a).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> served_ok{0};
  std::mutex failure_mu;
  std::string first_failure;
  auto fail = [&](const std::string& message) {
    failures.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(failure_mu);
    if (first_failure.empty()) first_failure = message;
  };

  auto worker = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      serve::ServeRequest request{users, kTopN, /*deadline_ms=*/2000};
      serve::ServeResponse response = runtime.Handle(request);
      auto it = expected.find(response.artifact_seed);
      if (it == expected.end()) {
        fail("response from unknown artifact generation (seed " +
             std::to_string(response.artifact_seed) +
             "): a corrupt shard set became visible");
        continue;
      }
      if (response.status.ok()) {
        if (response.epoch <= 0) {
          fail("ok response without an epoch id");
        } else if (response.batch.lists != it->second.lists) {
          fail("torn read: sharded response bits do not match the "
               "generation that served it (seed " +
               std::to_string(response.artifact_seed) + ")");
        }
        served_ok.fetch_add(1, std::memory_order_relaxed);
      } else if (response.status.code() == StatusCode::kResourceExhausted ||
                 response.status.code() == StatusCode::kDeadlineExceeded) {
        if (response.degraded_fallback) {
          for (const core::RecommendationList& list : response.batch.lists) {
            if (list != it->second.fallback) {
              fail("fallback ranking does not match the serving epoch's "
                   "global-average row");
              break;
            }
          }
        }
      } else {
        fail("untyped rejection from Handle: " + response.status.ToString());
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);

  const int64_t iterations = ChaosIterations();
  int64_t rejected_corrupt = 0;
  for (int64_t iter = 0; iter < iterations; ++iter) {
    Status swapped;
    switch (iter % 6) {
      case 0:
        swapped = runtime.Activate(good_a);
        break;
      case 1:
        swapped = runtime.Activate(bitflip);
        if (swapped.ok()) fail("bit-flipped shard set activated");
        ++rejected_corrupt;
        break;
      case 2:
        swapped = runtime.Activate(good_b);
        break;
      case 3:
        swapped = runtime.Activate(missing);
        if (swapped.ok()) fail("shard set with a missing file activated");
        ++rejected_corrupt;
        break;
      case 4:
        fault::FaultInjector::Instance().Arm(
            "shard.read", {fault::FaultKind::kIoError, 1, 1});
        swapped = runtime.Activate(good_a);
        fault::FaultInjector::Instance().Reset();
        if (swapped.ok()) fail("armed shard io_error did not fail reload");
        break;
      case 5:
        fault::FaultInjector::Instance().Arm(
            "shard.read", {fault::FaultKind::kLatency, 1, 2});
        swapped = runtime.Activate(good_b);
        fault::FaultInjector::Instance().Reset();
        break;
    }
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0) << first_failure;
  EXPECT_GT(served_ok.load(), 0);
  EXPECT_GE(rejected_corrupt, iterations / 3);
  EXPECT_GE(runtime.swapper().rollbacks(), rejected_corrupt);
  EXPECT_GT(runtime.swapper().swaps(), 0);
  EXPECT_FALSE(runtime.swapper().last_error().empty());
  const auto live = runtime.swapper().Acquire();
  ASSERT_NE(live, nullptr);
  EXPECT_TRUE(live->artifact_seed == 101 || live->artifact_seed == 202);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace privrec
