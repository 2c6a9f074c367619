// Tests for the deterministic parallel execution layer (common/parallel.h):
// chunking edge cases, error propagation as Status, and — the contract the
// DP mechanisms depend on — thread-count invariance: for a fixed input and
// seed, similarity workloads, noisy cluster-average publication and full
// NDCG evaluation are bit-identical for any --threads value, including 1.

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "community/louvain.h"
#include "core/cluster_publisher.h"
#include "core/exact_recommender.h"
#include "data/synthetic.h"
#include "dp/mechanisms.h"
#include "eval/exact_reference.h"
#include "eval/experiment.h"
#include "mechanisms.h"
#include "similarity/common_neighbors.h"
#include "similarity/katz.h"
#include "similarity/workload.h"

namespace privrec {
namespace {

// The thread counts the invariance suite sweeps; includes 1 (the serial
// reference), a power of two, a prime that never divides the ranges
// evenly, and whatever this machine actually has.
std::vector<int64_t> ThreadCounts() {
  return {1, 2, 7, HardwareThreads()};
}

// ----------------------------------------------------------- chunking

TEST(ChunkingTest, DefaultChunkSizeIsPureFunctionOfN) {
  EXPECT_EQ(DefaultChunkSize(0), 1);
  EXPECT_EQ(DefaultChunkSize(1), 1);
  EXPECT_EQ(DefaultChunkSize(kDefaultTargetChunks), 1);
  EXPECT_EQ(DefaultChunkSize(kDefaultTargetChunks + 1), 2);
  EXPECT_EQ(DefaultChunkSize(10 * kDefaultTargetChunks), 10);
  // Never depends on the global thread count.
  ScopedThreadCount scoped(13);
  EXPECT_EQ(DefaultChunkSize(10 * kDefaultTargetChunks), 10);
}

TEST(ChunkingTest, NumChunksCoversTheRangeExactly) {
  EXPECT_EQ(NumChunks(0, 4), 0);
  EXPECT_EQ(NumChunks(1, 4), 1);
  EXPECT_EQ(NumChunks(8, 4), 2);
  EXPECT_EQ(NumChunks(9, 4), 3);
}

// ---------------------------------------------------------- ParallelFor

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  int64_t calls = 0;
  Status s = ParallelFor(0, [&](int64_t, int64_t, int64_t) { ++calls; });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const int64_t n = 1000;
  for (int64_t threads : ThreadCounts()) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    Status s = ParallelFor(
        n, ParallelOptions{.threads = threads},
        [&](int64_t, int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            hits[static_cast<size_t>(i)].fetch_add(1);
          }
        });
    ASSERT_TRUE(s.ok());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelForTest, RangeSmallerThanThreadCount) {
  const int64_t n = 3;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  Status s = ParallelFor(n, ParallelOptions{.threads = 16},
                         [&](int64_t, int64_t begin, int64_t end) {
                           for (int64_t i = begin; i < end; ++i) {
                             hits[static_cast<size_t>(i)].fetch_add(1);
                           }
                         });
  ASSERT_TRUE(s.ok());
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1);
  }
}

TEST(ParallelForTest, ChunkBoundariesMatchChunkSize) {
  std::vector<std::pair<int64_t, int64_t>> ranges(4, {-1, -1});
  Status s = ParallelFor(
      10, ParallelOptions{.threads = 1, .chunk_size = 3},
      [&](int64_t chunk, int64_t begin, int64_t end) {
        ranges[static_cast<size_t>(chunk)] = {begin, end};
      });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(ranges[0], (std::pair<int64_t, int64_t>{0, 3}));
  EXPECT_EQ(ranges[1], (std::pair<int64_t, int64_t>{3, 6}));
  EXPECT_EQ(ranges[2], (std::pair<int64_t, int64_t>{6, 9}));
  EXPECT_EQ(ranges[3], (std::pair<int64_t, int64_t>{9, 10}));
}

TEST(ParallelForTest, ExceptionPropagatesAsInternalStatus) {
  for (int64_t threads : {int64_t{1}, int64_t{7}}) {
    Status s = ParallelFor(10, ParallelOptions{.threads = threads},
                           [&](int64_t, int64_t begin, int64_t) {
                             if (begin == 3) {
                               throw std::runtime_error("boom at three");
                             }
                           });
    EXPECT_EQ(s.code(), StatusCode::kInternal) << threads;
    EXPECT_NE(s.message().find("boom at three"), std::string::npos)
        << s.message();
  }
}

TEST(ParallelForTest, StatusReturningBodyPropagatesItsError) {
  Status s = ParallelFor(
      5, ParallelOptions{.threads = 2},
      [&](int64_t chunk, int64_t, int64_t) -> Status {
        if (chunk == 0) return Status::InvalidArgument("bad chunk zero");
        return Status::Ok();
      });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad chunk zero");
}

TEST(ParallelForTest, NestedParallelForRunsSeriallyAndCompletes) {
  const int64_t n = 8;
  std::atomic<int64_t> total{0};
  Status s = ParallelFor(
      n, ParallelOptions{.threads = 4},
      [&](int64_t, int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          Status inner =
              ParallelFor(3, ParallelOptions{.threads = 4},
                          [&](int64_t, int64_t b, int64_t e) {
                            total.fetch_add(e - b);
                          });
          ASSERT_TRUE(inner.ok());
        }
      });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(total.load(), n * 3);
}

// ------------------------------------------------------- ParallelReduce

TEST(ParallelReduceTest, OrderedFoldIsBitIdenticalAcrossThreadCounts) {
  // Doubles with wildly mixed magnitudes, where FP addition order matters.
  Rng rng(7);
  const int64_t n = 5000;
  std::vector<double> values(static_cast<size_t>(n));
  for (double& v : values) {
    v = rng.Laplace(1.0) * std::pow(10.0, rng.UniformInt(0, 12));
  }
  auto sum_at = [&](int64_t threads) {
    Result<double> r = ParallelReduce(
        n, ParallelOptions{.threads = threads}, 0.0,
        [&](int64_t, int64_t begin, int64_t end) {
          double acc = 0.0;
          for (int64_t i = begin; i < end; ++i) {
            acc += values[static_cast<size_t>(i)];
          }
          return acc;
        },
        [](double& acc, double part) { acc += part; });
    EXPECT_TRUE(r.ok());
    return *r;
  };
  const double reference = sum_at(1);
  for (int64_t threads : ThreadCounts()) {
    EXPECT_EQ(sum_at(threads), reference) << "threads=" << threads;
  }
}

TEST(ParallelReduceTest, EmptyRangeReturnsInit) {
  Result<double> r = ParallelReduce(
      0, ParallelOptions{}, 42.0,
      [](int64_t, int64_t, int64_t) { return 1.0; },
      [](double& acc, double part) { acc += part; });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42.0);
}

TEST(ParallelReduceTest, MapExceptionSurfacesAsStatus) {
  Result<double> r = ParallelReduce(
      10, ParallelOptions{.threads = 3}, 0.0,
      [](int64_t, int64_t begin, int64_t) -> double {
        if (begin >= 5) throw std::runtime_error("map failed");
        return 1.0;
      },
      [](double& acc, double part) { acc += part; });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ParallelSumTest, MatchesSerialLeftFoldForSmallRanges) {
  // For n <= kDefaultTargetChunks the default chunk size is 1, making the
  // ordered fold exactly the serial left-to-right sum.
  Rng rng(8);
  std::vector<double> values(200);
  for (double& v : values) v = rng.Normal();
  double serial = 0.0;
  for (double v : values) serial += v;
  for (int64_t threads : ThreadCounts()) {
    ScopedThreadCount scoped(threads);
    double parallel = ParallelSum(
        static_cast<int64_t>(values.size()),
        [&](int64_t i) { return values[static_cast<size_t>(i)]; });
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

// -------------------------------------------------------------- SplitRng

TEST(SplitRngTest, StreamsAreReproducibleAndDistinct) {
  SplitRng a(1234, 0);
  SplitRng b(1234, 0);
  Rng s0a = a.StreamFor(0);
  Rng s0b = b.StreamFor(0);
  Rng s1 = a.StreamFor(1);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(s0a.Next(), s0b.Next());
  }
  // Different stream ids and different invocations decorrelate.
  Rng s0c = SplitRng(1234, 1).StreamFor(0);
  int same_as_s1 = 0;
  int same_as_inv1 = 0;
  Rng s0 = SplitRng(1234, 0).StreamFor(0);
  for (int i = 0; i < 64; ++i) {
    uint64_t x = s0.Next();
    if (x == s1.Next()) ++same_as_s1;
    if (x == s0c.Next()) ++same_as_inv1;
  }
  EXPECT_EQ(same_as_s1, 0);
  EXPECT_EQ(same_as_inv1, 0);
}

// ------------------------------------------- thread-count invariance

struct InvarianceFixture {
  data::Dataset dataset;
  community::LouvainResult louvain;

  // 300 users: more than kDefaultTargetChunks, so the workload sweep
  // exercises chunks holding several users each.
  InvarianceFixture()
      : dataset(data::MakeTinyDataset(300, 120, 41)),
        louvain(community::RunLouvain(dataset.social,
                                      {.restarts = 2, .seed = 42})) {}
};

InvarianceFixture& Fixture() {
  static InvarianceFixture& f = *new InvarianceFixture();
  return f;
}

// Bitwise workload equality: layout, entries, and the FP statistics.
void ExpectWorkloadsIdentical(const similarity::SimilarityWorkload& a,
                              const similarity::SimilarityWorkload& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  EXPECT_EQ(a.measure_name(), b.measure_name());
  EXPECT_EQ(a.TotalEntries(), b.TotalEntries());
  EXPECT_EQ(a.MaxColumnSum(), b.MaxColumnSum());  // exact, not NEAR
  EXPECT_EQ(a.MaxEntry(), b.MaxEntry());
  for (graph::NodeId u = 0; u < a.num_users(); ++u) {
    auto ra = a.Row(u);
    auto rb = b.Row(u);
    ASSERT_EQ(ra.size(), rb.size()) << "user " << u;
    for (size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k].user, rb[k].user) << "user " << u;
      EXPECT_EQ(ra[k].score, rb[k].score) << "user " << u;  // bitwise
    }
  }
}

TEST(ThreadInvarianceTest, SimilarityWorkloadIsBitIdentical) {
  InvarianceFixture& f = Fixture();
  similarity::CommonNeighbors cn;
  similarity::Katz katz(3, 0.05);
  for (const similarity::SimilarityMeasure* measure :
       {static_cast<const similarity::SimilarityMeasure*>(&cn),
        static_cast<const similarity::SimilarityMeasure*>(&katz)}) {
    ScopedThreadCount baseline(1);
    similarity::SimilarityWorkload reference =
        similarity::SimilarityWorkload::Compute(f.dataset.social, *measure);
    for (int64_t threads : ThreadCounts()) {
      ScopedThreadCount scoped(threads);
      similarity::SimilarityWorkload w =
          similarity::SimilarityWorkload::Compute(f.dataset.social,
                                                  *measure);
      ExpectWorkloadsIdentical(reference, w);
    }
  }
}

TEST(ThreadInvarianceTest, PartialWorkloadIsBitIdentical) {
  InvarianceFixture& f = Fixture();
  similarity::CommonNeighbors cn;
  std::vector<graph::NodeId> store = {0, 17, 33, 128, 299};
  ScopedThreadCount baseline(1);
  similarity::SimilarityWorkload reference =
      similarity::SimilarityWorkload::ComputeForUsers(f.dataset.social, cn,
                                                      store);
  for (int64_t threads : ThreadCounts()) {
    ScopedThreadCount scoped(threads);
    similarity::SimilarityWorkload w =
        similarity::SimilarityWorkload::ComputeForUsers(f.dataset.social,
                                                        cn, store);
    ExpectWorkloadsIdentical(reference, w);
  }
}

TEST(ThreadInvarianceTest, NoisyClusterAveragesAreBitIdentical) {
  InvarianceFixture& f = Fixture();
  similarity::CommonNeighbors cn;
  similarity::SimilarityWorkload workload =
      similarity::SimilarityWorkload::Compute(f.dataset.social, cn);
  core::RecommenderContext context{&f.dataset.social, &f.dataset.preferences,
                                   &workload};
  auto averages_at = [&](int64_t threads, int invocations) {
    ScopedThreadCount scoped(threads);
    core::ClusterPublisher publisher(context, f.louvain.partition,
                                     {.epsilon = 0.5, .seed = 77});
    std::vector<double> last;
    for (int k = 0; k < invocations; ++k) {
      last = publisher.ComputeNoisyClusterAverages();
    }
    return last;
  };
  // First AND a later invocation: the split streams must be invariant for
  // every value of the invocation counter, with real Laplace noise drawn.
  const std::vector<double> ref1 = averages_at(1, 1);
  const std::vector<double> ref3 = averages_at(1, 3);
  EXPECT_NE(ref1, ref3);  // fresh noise per invocation
  for (int64_t threads : ThreadCounts()) {
    EXPECT_EQ(averages_at(threads, 1), ref1) << "threads=" << threads;
    EXPECT_EQ(averages_at(threads, 3), ref3) << "threads=" << threads;
  }
}

TEST(ThreadInvarianceTest, ClusterRecommendationsAndReportsAreIdentical) {
  InvarianceFixture& f = Fixture();
  similarity::CommonNeighbors cn;
  similarity::SimilarityWorkload workload =
      similarity::SimilarityWorkload::Compute(f.dataset.social, cn);
  core::RecommenderContext context{&f.dataset.social, &f.dataset.preferences,
                                   &workload};
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < f.dataset.social.num_nodes(); ++u) {
    users.push_back(u);
  }
  // Publication and reconstruction both run at `threads`.
  auto batch_at = [&](int64_t threads) {
    ScopedThreadCount scoped(threads);
    serving::ServingEngine engine = test_mechanisms::BuildEngine(
        context, f.louvain.partition, 0.3, 99,
        /*include_reference_sections=*/false);
    return test_mechanisms::Serve(engine,
                                  {.mechanism = "Cluster", .epsilon = 0.3})
        ->Recommend(users, 10);
  };
  core::RecommendedBatch reference = batch_at(1);
  for (int64_t threads : ThreadCounts()) {
    core::RecommendedBatch batch = batch_at(threads);
    EXPECT_EQ(batch.lists, reference.lists) << "threads=" << threads;
    ASSERT_EQ(batch.degradation.size(), reference.degradation.size());
    for (size_t k = 0; k < batch.degradation.size(); ++k) {
      EXPECT_EQ(batch.degradation[k].reason,
                reference.degradation[k].reason);
    }
    EXPECT_EQ(batch.report.users_degraded, reference.report.users_degraded);
    EXPECT_EQ(batch.report.empty_clusters, reference.report.empty_clusters);
    EXPECT_EQ(batch.report.singleton_clusters,
              reference.report.singleton_clusters);
  }
}

TEST(ThreadInvarianceTest, ExactRecommenderListsAreIdentical) {
  InvarianceFixture& f = Fixture();
  similarity::CommonNeighbors cn;
  similarity::SimilarityWorkload workload =
      similarity::SimilarityWorkload::Compute(f.dataset.social, cn);
  core::RecommenderContext context{&f.dataset.social, &f.dataset.preferences,
                                   &workload};
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < f.dataset.social.num_nodes(); ++u) {
    users.push_back(u);
  }
  ScopedThreadCount baseline(1);
  core::ExactRecommender ref_rec(context);
  auto reference = ref_rec.Recommend(users, 20);
  for (int64_t threads : ThreadCounts()) {
    ScopedThreadCount scoped(threads);
    core::ExactRecommender rec(context);
    EXPECT_EQ(rec.Recommend(users, 20), reference)
        << "threads=" << threads;
  }
}

TEST(ThreadInvarianceTest, FullNdcgSweepIsBitIdentical) {
  InvarianceFixture& f = Fixture();
  similarity::CommonNeighbors cn;
  similarity::SimilarityWorkload workload =
      similarity::SimilarityWorkload::Compute(f.dataset.social, cn);
  core::RecommenderContext context{&f.dataset.social, &f.dataset.preferences,
                                   &workload};
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < f.dataset.social.num_nodes(); u += 2) {
    users.push_back(u);
  }
  eval::ExactReference reference_eval =
      eval::ExactReference::Compute(context, users, 20);

  eval::SweepOptions options;
  options.epsilons = {dp::kEpsilonInfinity, 1.0, 0.1};
  options.ns = {5, 20};
  options.trials = 3;
  options.seed = 500;
  auto factory = [&](double epsilon, uint64_t seed) {
    return test_mechanisms::MakeCluster(context, f.louvain.partition,
                                        epsilon, seed);
  };

  auto sweep_at = [&](int64_t threads) {
    ScopedThreadCount scoped(threads);
    return eval::RunNdcgSweep(factory, reference_eval, options);
  };
  std::vector<eval::SweepCell> reference = sweep_at(1);
  for (int64_t threads : ThreadCounts()) {
    std::vector<eval::SweepCell> cells = sweep_at(threads);
    ASSERT_EQ(cells.size(), reference.size()) << "threads=" << threads;
    for (size_t k = 0; k < cells.size(); ++k) {
      EXPECT_EQ(cells[k].epsilon, reference[k].epsilon);
      EXPECT_EQ(cells[k].n, reference[k].n);
      // Bitwise: the whole pipeline — noise draws, utility sums, NDCG
      // averages — must not depend on the thread count.
      EXPECT_EQ(cells[k].mean_ndcg, reference[k].mean_ndcg)
          << "threads=" << threads << " cell " << k;
      EXPECT_EQ(cells[k].stddev_ndcg, reference[k].stddev_ndcg)
          << "threads=" << threads << " cell " << k;
    }
  }
}

TEST(ThreadInvarianceTest, ExactReferenceIsBitIdentical) {
  InvarianceFixture& f = Fixture();
  similarity::CommonNeighbors cn;
  similarity::SimilarityWorkload workload =
      similarity::SimilarityWorkload::Compute(f.dataset.social, cn);
  core::RecommenderContext context{&f.dataset.social, &f.dataset.preferences,
                                   &workload};
  std::vector<graph::NodeId> users;
  for (graph::NodeId u = 0; u < f.dataset.social.num_nodes(); ++u) {
    users.push_back(u);
  }
  ScopedThreadCount baseline(1);
  eval::ExactReference reference =
      eval::ExactReference::Compute(context, users, 15);
  core::ExactRecommender rec(context);
  auto lists = rec.Recommend(users, 15);
  const double ref_ndcg = reference.MeanNdcg(lists);
  for (int64_t threads : ThreadCounts()) {
    ScopedThreadCount scoped(threads);
    eval::ExactReference other =
        eval::ExactReference::Compute(context, users, 15);
    for (graph::NodeId u : users) {
      EXPECT_EQ(other.IdealDcg(u, 15), reference.IdealDcg(u, 15));
    }
    EXPECT_EQ(other.MeanNdcg(lists), ref_ndcg) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace privrec
