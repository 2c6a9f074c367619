// Tests for the hybrid extension: holdout evaluation, the item-based CF
// recommender (with its McSherry-Mironov-style DP release), and the
// rank-fusion hybrid.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "community/louvain.h"
#include "core/exact_recommender.h"
#include "core/hybrid_recommender.h"
#include "core/item_cf_recommender.h"
#include "data/synthetic.h"
#include "dp/audit.h"
#include "dp/mechanisms.h"
#include "eval/holdout.h"
#include "mechanisms.h"
#include "similarity/common_neighbors.h"

namespace privrec::core {
namespace {

using graph::ItemId;
using graph::NodeId;
using graph::PreferenceGraph;
using graph::SocialGraph;

// ---------------------------------------------------------------- holdout

TEST(HoldoutTest, SplitsProportionallyAndKeepsOneEdge) {
  data::Dataset d = data::MakeTinyDataset(120, 100, 51);
  eval::HoldoutSplit split =
      eval::SplitHoldout(d.preferences, {.fraction = 0.25, .seed = 52});
  int64_t held_total = 0;
  for (NodeId u = 0; u < d.preferences.num_users(); ++u) {
    int64_t before = d.preferences.UserDegree(u);
    int64_t after = split.train.UserDegree(u);
    int64_t held =
        static_cast<int64_t>(split.held_out[static_cast<size_t>(u)].size());
    EXPECT_EQ(after + held, before);
    EXPECT_GE(after, 1);
    held_total += held;
  }
  double fraction = static_cast<double>(held_total) /
                    static_cast<double>(d.preferences.num_edges());
  EXPECT_NEAR(fraction, 0.25, 0.05);
}

TEST(HoldoutTest, HeldOutEdgesAbsentFromTrain) {
  data::Dataset d = data::MakeTinyDataset(80, 60, 53);
  eval::HoldoutSplit split =
      eval::SplitHoldout(d.preferences, {.fraction = 0.3, .seed = 54});
  for (NodeId u = 0; u < d.preferences.num_users(); ++u) {
    for (ItemId i : split.held_out[static_cast<size_t>(u)]) {
      EXPECT_DOUBLE_EQ(split.train.Weight(u, i), 0.0);
      EXPECT_DOUBLE_EQ(d.preferences.Weight(u, i), 1.0);
    }
  }
}

TEST(HoldoutTest, ZeroFractionIsIdentity) {
  data::Dataset d = data::MakeTinyDataset(60, 50, 55);
  eval::HoldoutSplit split =
      eval::SplitHoldout(d.preferences, {.fraction = 0.0, .seed = 56});
  EXPECT_EQ(split.train.num_edges(), d.preferences.num_edges());
}

TEST(HoldoutTest, RecallAndHitRateHandComputed) {
  eval::HoldoutSplit split;
  split.held_out = {{1, 2, 3, 4}, {5}, {}};
  std::vector<NodeId> users = {0, 1, 2};
  std::vector<RecommendationList> lists = {
      {{1, 0}, {9, 0}, {2, 0}},  // hits 2 of 4
      {{7, 0}, {8, 0}},          // hits 0 of 1
      {{5, 0}}};                 // empty holdout: excluded
  EXPECT_NEAR(eval::HoldoutRecall(lists, users, split),
              (0.5 + 0.0) / 2.0, 1e-12);
  EXPECT_NEAR(eval::HoldoutHitRate(lists, users, split), 0.5, 1e-12);
}

// --------------------------------------------------------------- item CF

TEST(ItemCfTest, ExactScoresHandComputed) {
  // Users: 0 -> {0,1}; 1 -> {0,1,2}; 2 -> {2,3}. tau large (no clamping).
  // C(0,1) = 2 (users 0,1); C(1,2) = 1 (user 1); C(2,3) = 1 (user 2);
  // C(0,2) = 1 (user 1).
  SocialGraph social = SocialGraph::FromEdges(3, {{0, 1}, {1, 2}});
  PreferenceGraph prefs = PreferenceGraph::FromEdges(
      3, 4, {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 2}, {2, 3}});
  auto workload = similarity::SimilarityWorkload::Compute(
      social, similarity::CommonNeighbors());
  RecommenderContext ctx{&social, &prefs, &workload};
  ItemCfRecommender cf(ctx,
                       {.epsilon = dp::kEpsilonInfinity, .tau = 10});
  // score(0, i) = C(i,0) + C(i,1):
  //   i=0: C(0,1)=2 -> 2;  i=1: C(1,0)=2 -> 2;
  //   i=2: C(2,0)+C(2,1) = 1+1 = 2;  i=3: 0.
  std::vector<double> s = cf.ExactScores(0);
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_DOUBLE_EQ(s[1], 2.0);
  EXPECT_DOUBLE_EQ(s[2], 2.0);
  EXPECT_DOUBLE_EQ(s[3], 0.0);
  // score(2, i) = C(i,2) + C(i,3): i=0: 1; i=1: 1; i=3: 1; i=2: 1 (C(2,3)).
  std::vector<double> s2 = cf.ExactScores(2);
  EXPECT_DOUBLE_EQ(s2[0], 1.0);
  EXPECT_DOUBLE_EQ(s2[3], 1.0);
}

TEST(ItemCfTest, ClampingKeepsSmallestItemIds) {
  SocialGraph social = SocialGraph::FromEdges(2, {{0, 1}});
  PreferenceGraph prefs = PreferenceGraph::FromEdges(
      2, 10, {{0, 9}, {0, 3}, {0, 7}, {0, 1}, {1, 0}});
  auto workload = similarity::SimilarityWorkload::Compute(
      social, similarity::CommonNeighbors());
  RecommenderContext ctx{&social, &prefs, &workload};
  ItemCfRecommender cf(ctx, {.epsilon = 1.0, .tau = 2});
  auto clamped = cf.ClampedItems(0);
  ASSERT_EQ(clamped.size(), 2u);
  EXPECT_EQ(clamped[0], 1);
  EXPECT_EQ(clamped[1], 3);
}

TEST(ItemCfTest, NoiseMatrixConsistentAcrossCalls) {
  data::Dataset d = data::MakeTinyDataset(80, 60, 57);
  auto workload = similarity::SimilarityWorkload::Compute(
      d.social, similarity::CommonNeighbors());
  RecommenderContext ctx{&d.social, &d.preferences, &workload};
  ItemCfRecommender cf(ctx, {.epsilon = 0.5, .tau = 5, .seed = 58});
  // Same single release: repeated queries are identical post-processing.
  EXPECT_EQ(cf.Recommend({3, 7}, 8), cf.Recommend({3, 7}, 8));
}

TEST(ItemCfTest, RecoversHeldOutItemsAboveChance) {
  data::Dataset d = data::MakeTinyDataset(300, 200, 59);
  eval::HoldoutSplit split =
      eval::SplitHoldout(d.preferences, {.fraction = 0.2, .seed = 60});
  auto workload = similarity::SimilarityWorkload::Compute(
      d.social, similarity::CommonNeighbors());
  RecommenderContext ctx{&d.social, &split.train, &workload};
  ItemCfRecommender cf(ctx, {.epsilon = dp::kEpsilonInfinity, .tau = 20});
  std::vector<NodeId> users;
  for (NodeId u = 0; u < d.social.num_nodes(); u += 2) users.push_back(u);
  double recall =
      eval::HoldoutRecall(cf.Recommend(users, 20), users, split);
  // Chance level: 20 of 200 items = 0.1.
  EXPECT_GT(recall, 0.25);
}

TEST(ItemCfTest, EmpiricalDpOnMatrixEntry) {
  // Audit the released entry C̃(0, 1) on neighboring graphs where the
  // differing edge (u=1, item 1) changes C(0, 1) by 1. Rebuild the
  // recommender per sample with a fresh seed to sample the release.
  SocialGraph social = SocialGraph::FromEdges(3, {{0, 1}, {1, 2}});
  PreferenceGraph base =
      PreferenceGraph::FromEdges(3, 3, {{0, 0}, {0, 1}, {1, 0}});
  PreferenceGraph nbr = base.WithEdge(1, 1);
  auto workload = similarity::SimilarityWorkload::Compute(
      social, similarity::CommonNeighbors());
  RecommenderContext ctx1{&social, &base, &workload};
  RecommenderContext ctx2{&social, &nbr, &workload};
  const double eps = 1.0;
  const int64_t tau = 2;
  // The mechanism's per-entry guarantee is eps with sensitivity 2*tau, so
  // a single entry differing by 1 enjoys eps' = eps / (2 tau) ... audit
  // against the full eps bound (a valid, looser check: the entry-level
  // ratio must certainly stay within e^eps).
  uint64_t counter = 0;
  auto sample = [&](RecommenderContext& ctx) {
    // Fresh seed per draw = sampling the single-release distribution.
    ItemCfRecommender cf(ctx, {.epsilon = eps, .tau = tau,
                               .seed = 9000 + counter++});
    // User 0's clamped list is {0, 1}, so the released utility of item 0
    // is C̃(0, 1) = C(0, 1) + noise(0, 1) — exactly the entry the
    // differing edge (user 1, item 1) shifts by 1.
    auto lists = cf.Recommend({0}, 3);
    for (const auto& r : lists[0]) {
      if (r.item == 0) return r.utility;
    }
    return 0.0;
  };
  dp::AuditOptions opt;
  opt.lo = -15.0;
  opt.hi = 18.0;
  opt.num_bins = 16;
  opt.samples = 20000;
  opt.min_bin_count = 200;
  opt.slack = 1.25;
  dp::AuditResult result = dp::AuditDpRatio(
      [&] { return sample(ctx1); }, [&] { return sample(ctx2); }, eps, opt);
  EXPECT_TRUE(result.passed) << result.ToString();
}

// ---------------------------------------------------------------- hybrid

class HybridTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = data::MakeTinyDataset(200, 150, 61);
    workload_ = similarity::SimilarityWorkload::Compute(
        dataset_.social, similarity::CommonNeighbors());
    context_ = {&dataset_.social, &dataset_.preferences, &workload_};
    louvain_ = community::RunLouvain(dataset_.social,
                                     {.restarts = 2, .seed = 62});
    for (NodeId u = 0; u < dataset_.social.num_nodes(); u += 4) {
      users_.push_back(u);
    }
  }

  data::Dataset dataset_;
  similarity::SimilarityWorkload workload_;
  RecommenderContext context_;
  community::LouvainResult louvain_;
  std::vector<NodeId> users_;
};

TEST_F(HybridTest, AlphaOneMatchesSocialRanking) {
  HybridRecommenderOptions opt;
  opt.epsilon_social = dp::kEpsilonInfinity;
  opt.epsilon_cf = dp::kEpsilonInfinity;
  opt.alpha = 1.0;
  opt.seed = 63;
  HybridRecommender hybrid(context_, louvain_.partition, opt);
  auto social = test_mechanisms::MakeCluster(context_, louvain_.partition,
                                             dp::kEpsilonInfinity, 1);
  auto h = hybrid.Recommend(users_, 10);
  auto s = social->Recommend(users_, 10);
  for (size_t k = 0; k < users_.size(); ++k) {
    for (size_t p = 0; p < 10 && p < s[k].size(); ++p) {
      EXPECT_EQ(h[k][p].item, s[k][p].item)
          << "user " << users_[k] << " pos " << p;
    }
  }
}

TEST_F(HybridTest, AlphaZeroMatchesCfRanking) {
  HybridRecommenderOptions opt;
  opt.epsilon_social = dp::kEpsilonInfinity;
  opt.epsilon_cf = dp::kEpsilonInfinity;
  opt.alpha = 0.0;
  opt.seed = 64;
  HybridRecommender hybrid(context_, louvain_.partition, opt);
  ItemCfRecommender cf(context_,
                       {.epsilon = dp::kEpsilonInfinity, .tau = 20,
                        .seed = 1});
  auto h = hybrid.Recommend(users_, 10);
  auto c = cf.Recommend(users_, 10);
  for (size_t k = 0; k < users_.size(); ++k) {
    for (size_t p = 0; p < 10 && p < c[k].size(); ++p) {
      EXPECT_EQ(h[k][p].item, c[k][p].item);
    }
  }
}

TEST_F(HybridTest, MidAlphaBlendsBothSources) {
  HybridRecommenderOptions opt;
  opt.epsilon_social = dp::kEpsilonInfinity;
  opt.epsilon_cf = dp::kEpsilonInfinity;
  opt.alpha = 0.5;
  HybridRecommender hybrid(context_, louvain_.partition, opt);
  auto lists = hybrid.Recommend(users_, 10);
  for (const auto& list : lists) {
    EXPECT_LE(list.size(), 10u);
    std::set<ItemId> items;
    for (const auto& r : list) EXPECT_TRUE(items.insert(r.item).second);
  }
}

TEST_F(HybridTest, DeterministicForSeed) {
  HybridRecommenderOptions opt;
  opt.epsilon_social = 0.5;
  opt.epsilon_cf = 0.5;
  opt.seed = 65;
  HybridRecommender a(context_, louvain_.partition, opt);
  HybridRecommender b(context_, louvain_.partition, opt);
  EXPECT_EQ(a.Recommend({0, 4}, 8), b.Recommend({0, 4}, 8));
}

}  // namespace
}  // namespace privrec::core
