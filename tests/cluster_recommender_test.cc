// Tests for the Cluster mechanism (Algorithm 1) as core::MakeRecommender
// serves it: degenerate-partition equivalences, approximation-error
// behaviour, the empirical ε-DP check at the privacy boundary (module A_w,
// core::ClusterPublisher), determinism, and the degradation diagnostics
// of the serve path.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/stats.h"
#include "community/louvain.h"
#include "community/simple_clusterings.h"
#include "core/cluster_publisher.h"
#include "core/exact_recommender.h"
#include "data/synthetic.h"
#include "dp/mechanisms.h"
#include "mechanisms.h"
#include "similarity/common_neighbors.h"

namespace privrec::core {
namespace {

using community::Partition;
using graph::ItemId;
using graph::NodeId;
using graph::PreferenceGraph;
using graph::SocialGraph;
using test_mechanisms::BuildEngine;
using test_mechanisms::MakeCluster;
using test_mechanisms::Serve;

class ClusterRecommenderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = data::MakeTinyDataset(/*num_users=*/200, /*num_items=*/150,
                                     /*seed=*/5);
    workload_ = similarity::SimilarityWorkload::Compute(
        dataset_.social, similarity::CommonNeighbors());
    context_ = {&dataset_.social, &dataset_.preferences, &workload_};
    for (NodeId u = 0; u < dataset_.social.num_nodes(); ++u) {
      all_users_.push_back(u);
    }
  }

  data::Dataset dataset_;
  similarity::SimilarityWorkload workload_;
  RecommenderContext context_;
  std::vector<NodeId> all_users_;
};

TEST_F(ClusterRecommenderTest,
       SingletonPartitionWithoutNoiseEqualsExactRecommender) {
  // With |c| = 1 every cluster average IS the edge weight, so epsilon = inf
  // must reproduce the exact recommender's rankings (Algorithm 1
  // degenerates to plain Equation 1).
  const Partition singletons =
      Partition::Singletons(dataset_.social.num_nodes());
  auto cluster = MakeCluster(context_, singletons, dp::kEpsilonInfinity, 1);
  ExactRecommender exact(context_);
  auto noisy = cluster->Recommend(all_users_, 10);
  auto truth = exact.Recommend(all_users_, 10);
  for (size_t k = 0; k < all_users_.size(); ++k) {
    // The exact list may be shorter (it only ranks nonzero utilities);
    // compare that prefix.
    for (size_t p = 0; p < truth[k].size(); ++p) {
      EXPECT_EQ(noisy[k][p].item, truth[k][p].item)
          << "user " << all_users_[k] << " position " << p;
      EXPECT_NEAR(noisy[k][p].utility, truth[k][p].utility, 1e-9);
    }
  }
}

TEST_F(ClusterRecommenderTest, NoisyAveragesHaveCorrectShapeAndMeans) {
  community::LouvainResult louvain =
      community::RunLouvain(dataset_.social, {.restarts = 2, .seed = 2});
  ClusterPublisher publisher(context_, louvain.partition,
                             {.epsilon = dp::kEpsilonInfinity, .seed = 3});
  std::vector<double> averages = publisher.ComputeNoisyClusterAverages();
  const Partition& phi = publisher.partition();
  ASSERT_EQ(averages.size(),
            static_cast<size_t>(phi.num_clusters() *
                                dataset_.preferences.num_items()));
  // Without noise, each average must equal the exact cluster mean.
  auto members = phi.Members();
  for (int64_t c = 0; c < phi.num_clusters(); ++c) {
    for (ItemId i = 0; i < dataset_.preferences.num_items(); i += 17) {
      double sum = 0.0;
      for (NodeId v : members[static_cast<size_t>(c)]) {
        sum += dataset_.preferences.Weight(v, i);
      }
      double expected = sum / static_cast<double>(phi.ClusterSize(c));
      EXPECT_NEAR(
          averages[static_cast<size_t>(c * dataset_.preferences.num_items() +
                                       i)],
          expected, 1e-12);
    }
  }
}

TEST_F(ClusterRecommenderTest, DeterministicForSeedFreshNoisePerCall) {
  Partition phi = community::RandomClusters(200, 10, 4);
  auto a = MakeCluster(context_, phi, 1.0, 9);
  auto b = MakeCluster(context_, phi, 1.0, 9);
  auto la1 = a->Recommend({0, 1, 2}, 5);
  auto la2 = a->Recommend({0, 1, 2}, 5);  // second call: fresh noise
  auto lb1 = b->Recommend({0, 1, 2}, 5);
  EXPECT_EQ(la1, lb1);   // same seed, same invocation index
  EXPECT_NE(la1, la2);   // new invocation draws new noise
}

TEST_F(ClusterRecommenderTest, LouvainClustersBeatRandomClustersAtLowEps) {
  // The paper's core claim in miniature: community clusters trade less
  // approximation error for the same noise reduction than random clusters
  // of the same granularity.
  community::LouvainResult louvain =
      community::RunLouvain(dataset_.social, {.restarts = 3, .seed = 5});
  Partition random = community::RandomClusters(
      dataset_.social.num_nodes(), louvain.partition.num_clusters(), 6);

  ExactRecommender exact(context_);
  auto truth = exact.Recommend(all_users_, 10);
  auto overlap_score = [&](const std::vector<RecommendationList>& lists) {
    // Fraction of the exact top-10 recovered, averaged over users.
    double total = 0.0;
    int64_t counted = 0;
    for (size_t k = 0; k < lists.size(); ++k) {
      if (truth[k].empty()) continue;
      std::set<ItemId> truth_set;
      for (const auto& r : truth[k]) truth_set.insert(r.item);
      int64_t hits = 0;
      for (const auto& r : lists[k]) {
        if (truth_set.count(r.item)) ++hits;
      }
      total += static_cast<double>(hits) /
               static_cast<double>(truth_set.size());
      ++counted;
    }
    return total / static_cast<double>(counted);
  };

  // Average over a few trials to keep the comparison stable.
  double louvain_score = 0.0;
  double random_score = 0.0;
  const int kTrials = 3;
  auto with_louvain = MakeCluster(context_, louvain.partition, 0.5, 7);
  auto with_random = MakeCluster(context_, random, 0.5, 7);
  for (int t = 0; t < kTrials; ++t) {
    louvain_score += overlap_score(with_louvain->Recommend(all_users_, 10));
    random_score += overlap_score(with_random->Recommend(all_users_, 10));
  }
  EXPECT_GT(louvain_score, random_score);
}

TEST_F(ClusterRecommenderTest, AccuracyDegradesAsEpsilonShrinks) {
  community::LouvainResult louvain =
      community::RunLouvain(dataset_.social, {.restarts = 2, .seed = 8});
  ExactRecommender exact(context_);
  auto truth = exact.Recommend(all_users_, 10);
  auto hits_at_eps = [&](double eps) {
    auto rec = MakeCluster(context_, louvain.partition, eps, 11);
    int64_t hits = 0;
    // Average over trials for stability.
    for (int t = 0; t < 3; ++t) {
      auto lists = rec->Recommend(all_users_, 10);
      for (size_t k = 0; k < lists.size(); ++k) {
        std::set<ItemId> truth_set;
        for (const auto& r : truth[k]) truth_set.insert(r.item);
        for (const auto& r : lists[k]) {
          if (truth_set.count(r.item)) ++hits;
        }
      }
    }
    return hits;
  };
  int64_t strong_privacy = hits_at_eps(0.01);
  int64_t weak_privacy = hits_at_eps(10.0);
  EXPECT_GT(weak_privacy, strong_privacy);
}

// The key privacy test: the A_w output distribution on neighboring
// preference graphs must satisfy the e^eps ratio bound (Definition 6 /
// Theorem 4). We test a small instance so histograms are well populated.
TEST(ClusterRecommenderPrivacyTest, EmpiricalDpAtTheBoundary) {
  SocialGraph social = SocialGraph::FromEdges(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}});
  PreferenceGraph base =
      PreferenceGraph::FromEdges(6, 2, {{0, 0}, {1, 0}, {4, 1}});
  PreferenceGraph neighbor = base.WithEdge(2, 0);  // one extra edge
  auto workload = similarity::SimilarityWorkload::Compute(
      social, similarity::CommonNeighbors());
  Partition phi({0, 0, 0, 1, 1, 1});

  const double eps = 1.0;
  const int kSamples = 60000;
  // Track the average of cluster 0's noisy mean for item 0 — the cell the
  // extra edge affects. Its distributions under base/neighbor must overlap
  // within e^eps.
  Histogram h_base(-1.5, 2.5, 16);
  Histogram h_neighbor(-1.5, 2.5, 16);

  RecommenderContext ctx_base{&social, &base, &workload};
  RecommenderContext ctx_nbr{&social, &neighbor, &workload};
  ClusterPublisher rec_base(ctx_base, phi, {.epsilon = eps, .seed = 21});
  ClusterPublisher rec_nbr(ctx_nbr, phi, {.epsilon = eps, .seed = 22});
  const int64_t num_items = 2;
  for (int s = 0; s < kSamples; ++s) {
    h_base.Add(rec_base.ComputeNoisyClusterAverages()[0 * num_items + 0]);
    h_neighbor.Add(
        rec_nbr.ComputeNoisyClusterAverages()[0 * num_items + 0]);
  }
  const double bound = std::exp(eps) * 1.2;  // sampling slack
  // Interior bins only: the clamped edge bins aggregate tail mass whose
  // true ratio sits exactly at e^eps, where sampling noise gives false
  // positives.
  for (int b = 1; b + 1 < h_base.num_bins(); ++b) {
    if (h_base.bin_count(b) < 400 || h_neighbor.bin_count(b) < 400) continue;
    double ratio = h_base.Fraction(b) / h_neighbor.Fraction(b);
    EXPECT_LT(ratio, bound) << "bin " << b;
    EXPECT_GT(ratio, 1.0 / bound) << "bin " << b;
  }
}

TEST(ClusterRecommenderPrivacyTest, UnaffectedClustersHaveIdenticalData) {
  // Adding an edge for a user in cluster 0 must not change the pre-noise
  // average of cluster 1 (disjointness that underpins parallel
  // composition). With epsilon = inf the outputs are the raw averages.
  SocialGraph social = SocialGraph::FromEdges(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  PreferenceGraph base = PreferenceGraph::FromEdges(6, 3, {{3, 1}, {5, 2}});
  PreferenceGraph neighbor = base.WithEdge(0, 1);
  auto workload = similarity::SimilarityWorkload::Compute(
      social, similarity::CommonNeighbors());
  Partition phi({0, 0, 0, 1, 1, 1});
  RecommenderContext ctx_base{&social, &base, &workload};
  RecommenderContext ctx_nbr{&social, &neighbor, &workload};
  ClusterPublisher a(ctx_base, phi,
                     {.epsilon = dp::kEpsilonInfinity, .seed = 1});
  ClusterPublisher b(ctx_nbr, phi,
                     {.epsilon = dp::kEpsilonInfinity, .seed = 1});
  auto avg_a = a.ComputeNoisyClusterAverages();
  auto avg_b = b.ComputeNoisyClusterAverages();
  const int64_t num_items = 3;
  // Cluster 1 rows identical.
  for (int64_t i = 0; i < num_items; ++i) {
    EXPECT_DOUBLE_EQ(avg_a[1 * num_items + i], avg_b[1 * num_items + i]);
  }
  // Cluster 0, item 1 differs by exactly 1/|c| = 1/3.
  EXPECT_NEAR(avg_b[0 * num_items + 1] - avg_a[0 * num_items + 1], 1.0 / 3.0,
              1e-12);
}

// ------------------------------------------------- serving degradation
//
// The diagnostics come with every serve batch: these tests serve an
// in-memory engine (what MakeRecommender serves) through
// serving::MakeServeRecommender and read them.

TEST(ClusterRecommenderDegradationTest, IsolatedUserFallsBackToGlobalAverage) {
  // Node 4 has no social edges, so its similarity row is empty: the
  // reconstruction formula would rank every item 0. The recommender must
  // serve the global-average ranking and say so, not fail.
  SocialGraph social =
      SocialGraph::FromEdges(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  PreferenceGraph prefs =
      PreferenceGraph::FromEdges(5, 3, {{0, 0}, {1, 0}, {2, 1}, {3, 2}});
  auto workload = similarity::SimilarityWorkload::Compute(
      social, similarity::CommonNeighbors());
  RecommenderContext ctx{&social, &prefs, &workload};
  const Partition phi({0, 0, 0, 1, 1});
  serving::ServingEngine engine =
      BuildEngine(ctx, phi, dp::kEpsilonInfinity, 3,
                  /*include_reference_sections=*/false);

  RecommendedBatch batch =
      Serve(engine, {.mechanism = "Cluster", .epsilon = dp::kEpsilonInfinity})
          ->Recommend({0, 4}, 3);
  ASSERT_EQ(batch.lists.size(), 2u);
  ASSERT_EQ(batch.degradation.size(), 2u);
  EXPECT_EQ(batch.degradation[0].reason, DegradationReason::kNone);
  EXPECT_EQ(batch.degradation[1].reason, DegradationReason::kIsolatedUser);
  EXPECT_EQ(batch.report.users_degraded, 1);
  // The fallback list ranks by the noiseless global average: item 0 has
  // two preference edges, items 1 and 2 one each — so item 0 leads.
  ASSERT_FALSE(batch.lists[1].empty());
  EXPECT_EQ(batch.lists[1][0].item, 0);
  // Recommend() returns exactly the same lists, minus the diagnostics.
  auto rec = MakeCluster(ctx, phi, dp::kEpsilonInfinity, 3);
  EXPECT_EQ(rec->Recommend({0, 4}, 3), batch.lists);
}

TEST(ClusterRecommenderDegradationTest, SingletonClustersAreCounted) {
  data::Dataset ds = data::MakeTinyDataset(40, 30, 12);
  auto workload = similarity::SimilarityWorkload::Compute(
      ds.social, similarity::CommonNeighbors());
  RecommenderContext ctx{&ds.social, &ds.preferences, &workload};
  serving::ServingEngine engine =
      BuildEngine(ctx, Partition::Singletons(40), 1.0, 4,
                  /*include_reference_sections=*/false);
  RecommendedBatch batch =
      Serve(engine, {.mechanism = "Cluster", .epsilon = 1.0})
          ->Recommend({0, 1}, 5);
  EXPECT_EQ(batch.report.singleton_clusters, 40);
  EXPECT_EQ(batch.report.empty_clusters, 0);
}

TEST(ClusterRecommenderDegradationTest,
     PoisonedNoisyAveragesAreSanitizedAndFlagged) {
  data::Dataset ds = data::MakeTinyDataset(60, 40, 13);
  auto workload = similarity::SimilarityWorkload::Compute(
      ds.social, similarity::CommonNeighbors());
  RecommenderContext ctx{&ds.social, &ds.preferences, &workload};
  // The poison lands in the publication, so it must be armed for the build.
  fault::ScopedFaultInjection scope(
      "cluster.noisy_averages",
      fault::FaultSpec{.kind = fault::FaultKind::kNaN});
  serving::ServingEngine engine =
      BuildEngine(ctx, Partition::Whole(60), 1.0, 5,
                  /*include_reference_sections=*/false);
  std::vector<NodeId> users;
  for (NodeId u = 0; u < 60; ++u) users.push_back(u);
  RecommendedBatch batch =
      Serve(engine, {.mechanism = "Cluster", .epsilon = 1.0})
          ->Recommend(users, 5);
  // One cluster, so its poisoned release touches every non-isolated user.
  EXPECT_EQ(batch.report.nonfinite_sanitized, 1);
  int64_t flagged = 0;
  for (size_t k = 0; k < users.size(); ++k) {
    for (const Recommendation& r : batch.lists[k]) {
      EXPECT_TRUE(std::isfinite(r.utility));  // NaN never reaches ranking
    }
    if (batch.degradation[k].reason ==
        DegradationReason::kNonFiniteSanitized) {
      ++flagged;
    }
  }
  EXPECT_GT(flagged, 0);
  // users_degraded also counts any isolated users in the synthetic graph.
  EXPECT_GE(batch.report.users_degraded, flagged);
}

TEST(GroupSmoothDegradationTest, PoisonedGroupMeanIsSanitizedAndFlagged) {
  data::Dataset ds = data::MakeTinyDataset(50, 30, 14);
  auto workload = similarity::SimilarityWorkload::Compute(
      ds.social, similarity::CommonNeighbors());
  RecommenderContext ctx{&ds.social, &ds.preferences, &workload};
  serving::ServingEngine engine =
      BuildEngine(ctx, Partition::Whole(50), 1.0, 6,
                  /*include_reference_sections=*/true);
  auto gs = Serve(engine, {.mechanism = "GS",
                           .epsilon = 1.0,
                           .seed = 6,
                           .gs_group_size = 8});

  fault::ScopedFaultInjection scope(
      "gs.group_mean", fault::FaultSpec{.kind = fault::FaultKind::kInf});
  std::vector<NodeId> users = {0, 1, 2, 3, 4};
  RecommendedBatch batch = gs->Recommend(users, 5);
  EXPECT_GT(batch.report.nonfinite_sanitized, 0);
  for (size_t k = 0; k < users.size(); ++k) {
    for (const Recommendation& r : batch.lists[k]) {
      EXPECT_TRUE(std::isfinite(r.utility));
    }
    // Every released mean was poisoned, so every user saw a sanitized one
    // (isolated users keep their more specific flag).
    EXPECT_TRUE(batch.degradation[k].degraded());
    if (batch.degradation[k].reason != DegradationReason::kIsolatedUser) {
      EXPECT_EQ(batch.degradation[k].reason,
                DegradationReason::kNonFiniteSanitized);
    }
  }
  EXPECT_EQ(batch.report.users_degraded,
            static_cast<int64_t>(users.size()));
}

TEST(GroupSmoothDegradationTest, SingleGroupIsCountedDegenerate) {
  data::Dataset ds = data::MakeTinyDataset(40, 15, 15);
  auto workload = similarity::SimilarityWorkload::Compute(
      ds.social, similarity::CommonNeighbors());
  RecommenderContext ctx{&ds.social, &ds.preferences, &workload};
  // group_size beyond |U| clamps to one group per item.
  serving::ServingEngine engine =
      BuildEngine(ctx, Partition::Whole(40), 1.0, 7,
                  /*include_reference_sections=*/true);
  RecommendedBatch batch = Serve(engine, {.mechanism = "GS",
                                          .epsilon = 1.0,
                                          .seed = 7,
                                          .gs_group_size = 500})
                               ->Recommend({0, 1}, 5);
  EXPECT_EQ(batch.report.degenerate_groups, 15);  // one per item
}

}  // namespace
}  // namespace privrec::core
